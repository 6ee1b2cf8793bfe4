"""Cold-start embedding: attach new products to feature-similar warm
products and run the trained model over the augmented neighbourhoods.

Cold products are embedded in `retrieval.block_rows(n, 8)`-row blocks,
ranking's rule for float64 cosines (128 at 2k products, 104 at 10k, 10 at
100k), over a disjoint union where key r (n + 1) + u is node u of request
r and u = n its cold node: co-view neighbour of its warm ids, last in each
of their rows. Sorted by key, each request sees the base graph plus its
one node, as if alone, keeping its bits; none alters the base graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import retrieval
from .graph import Adjacency, DirectedProductGraph
from .model import ModelParams, forward
from .sampler import SOURCE, TARGET, full_blocks


@dataclass
class ColdStartRequest:
    key: str
    features: np.ndarray
    k_sim: int = 5


def _pow2_scaled(a: np.ndarray) -> np.ndarray:
    """Each row of `a` times the power of two that puts its largest
    magnitude in [0.5, 1); zero and non-finite rows stay as they are."""
    _, e = np.frexp(np.abs(a).max(axis=-1, keepdims=True))
    return np.ldexp(a, -e)


def _excluded(n: int, eligible, b: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, id) pairs: each of `b` rows excludes ids outside `eligible`."""
    mask = np.full(n, eligible is not None)
    mask[[] if eligible is None else eligible] = False
    ids = np.flatnonzero(mask)
    return np.repeat(np.arange(b), len(ids)), np.tile(ids, b)


def find_warm_neighbors(features: np.ndarray, vecs: np.ndarray, k_sim: int,
                        eligible: np.ndarray | None = None) -> np.ndarray:
    """Top warm products (of `eligible`, default all) by cosine of input
    features, ties by id, a row of ids per row of a block of cold vectors.
    One float64 GEMM picks candidates, cut on the canonical cosine
    canonical_scores(f, i, v) / (|f_i| |v|), norms by pairwise row sums.
    Scaled by powers of two, max |v_j| is in [.5, 1) and |f_i| in [2^-500,
    2^500] (0 taken as 1), so the divisor s >= 2^-502 and sum |f_ij v_j| <=
    2 s. A dot in any order, FMA and underflow included, is within gamma_d
    sum |f_ij v_j| + d 2^-1074 of exact (gamma_m = m u / (1 - m u), u =
    2^-53), so the cosines differ by e <= 4 gamma_(d+1) + d 2^-570, division
    included, where both divide by the same norms. The GEMM's cosines
    divide by cheap norms (an einsum's row sums) instead: a norm in any
    order is within gamma_(d+1) of |f_i|, so the two norms' ratio is within
    2.1 gamma_(d+1) of 1, and a cosine (at most 2) moves by e' <= 7.1
    gamma_(d+1) more, its rounding included. delta = 2^-48 (d + 1) >= 2 (e
    + e') while (d + 1) u <= 2^-8 keeps every canonical top-k id: the GEMM
    never decides an output. Only rows whose cheap norm is not in [2^-499,
    2^499] are scaled; the canonical norms are taken of candidates only."""
    b, d = vecs.shape
    if d != features.shape[1]:
        raise ValueError(
            f"feature dim mismatch: cold {d}, warm {features.shape[1]}")
    vecs = _pow2_scaled(vecs)
    with np.errstate(over="ignore"):
        cheap = np.sqrt(np.einsum("ij,ij->i", features, features))
    odd = np.flatnonzero(~((cheap >= 2.0 ** -499) & (cheap <= 2.0 ** 499)))
    if len(odd):
        features = features.copy()
        features[odd] = _pow2_scaled(features[odd])
        cheap[odd] = np.linalg.norm(features[odd], axis=1)
    cheap[cheap == 0] = 1.0
    v_norms = np.linalg.norm(vecs, axis=1)

    def canonical(rows, ids):
        norms = np.linalg.norm(features[ids], axis=1)
        norms[norms == 0] = 1.0
        return retrieval.canonical_scores(features, ids, vecs.take(
            rows, 0)) / (v_norms[rows] * norms)

    top = retrieval.top_k_by_score(
        vecs @ features.T / np.multiply.outer(v_norms, cheap), k_sim,
        *_excluded(len(features), eligible, b), (d + 1) * 2.0 ** -48,
        canonical)
    return np.array([[i for i, _ in row] for row in top],
                    dtype=np.int64).reshape(b, -1)


def _keyed(adj: Adjacency, stride: int, patched=None, counts=None,
           patch=None) -> SimpleNamespace:
    """`adj` over union keys: key r * stride + u reads u's row (none for the
    cold node), or its patch row if in `patched`, shifted to request r."""
    indptr, indices = np.append(adj.indptr, adj.indptr[-1]), adj.indices
    if patched is not None:   # the patch rows follow the base rows
        indptr = np.concatenate([indptr, indptr[-1] + np.cumsum(counts)])
        indices = np.concatenate([indices, patch])
    adj = Adjacency(indptr, indices)

    def rows(keys):
        u = keys % stride
        if patched is not None:
            i = np.searchsorted(patched, keys)
            hit = patched.take(i, mode="clip") == keys
            u[hit] = stride + i[hit]
        deg, nbrs = adj.rows(u)
        if len(keys) and keys[-1] >= stride:   # request 0's keys are ids
            nbrs += np.repeat(keys - keys % stride, deg)
        return deg, nbrs
    return SimpleNamespace(rows=rows)


def embed_cold(g: DirectedProductGraph, features: np.ndarray,
               params: ModelParams, vecs: np.ndarray, k_sim: int = 5,
               eligible: np.ndarray | None = None):
    """Embed a block of cold products (rows of `vecs`) by one forward
    pass over their union. Returns (theta_s, theta_t, warm_ids), a row per
    product; its warm ids, best first, are its co-view neighbours."""
    if not len(vecs):
        raise ValueError("a cold block needs at least one row")
    vecs = np.asarray(vecs, dtype=np.float64).reshape(len(vecs), -1)
    if k_sim < 1 or not (np.isfinite(vecs).all() and vecs.any(axis=1).all()):
        raise ValueError("need k_sim >= 1 and cold rows finite, none all zeros")
    if len(features) != g.num_nodes:
        raise ValueError(f"{len(features)} feature rows, {g.num_nodes} nodes")
    warm = find_warm_neighbors(features, vecs, k_sim, eligible=eligible)
    if warm.shape[1] == 0:
        raise ValueError("no eligible warm products to attach to")
    n, b, k = g.num_nodes, len(vecs), warm.shape[1]
    cold = np.arange(b) * (n + 1) + n
    # patch rows, by key: each warm node's own row then the cold node, and
    # after a request's warm nodes, its cold node's row of warm nodes
    w = np.sort(warm, axis=1)
    wk = w + (cold - n)[:, None]
    deg, nbrs = g.cv_out.rows(w.ravel())
    keys = np.concatenate([np.repeat(wk.ravel(), deg), wk.ravel(),
                           np.repeat(cold, k)])
    nbrs = np.concatenate([nbrs, np.full(b * k, n), w.ravel()])
    cv = _keyed(g.cv_out, n + 1,
                np.concatenate([wk, cold[:, None]], axis=1).ravel(),
                np.concatenate([deg.reshape(b, k) + 1, np.full((b, 1), k)],
                               axis=1).ravel(), nbrs[np.lexsort((nbrs, keys))])
    union = SimpleNamespace(num_nodes=b * (n + 1), cv_out=cv, cv_in=cv,
                            cp_out=_keyed(g.cp_out, n + 1),
                            cp_in=_keyed(g.cp_in, n + 1))
    blocks = full_blocks(union, cold, params.num_layers)
    # level-0 rows: warm ones from `features`, cold ones from `vecs`
    s0, t0 = blocks.levels[0][SOURCE], blocks.levels[0][TARGET]
    r, u = np.divmod(np.concatenate([s0.nodes, t0.nodes]), n + 1)
    x = features.take(np.where(u < n, u, 0), axis=0)
    x[u == n] = vecs[r[u == n]]
    s0.nodes, t0.nodes = np.split(np.arange(len(u)), [len(s0.nodes)])
    emb, _ = forward(blocks, x, params)
    return emb.theta_s, emb.theta_t, warm


def recommend_cold_blocks(g, features, params, index, vecs, k: int,
                          k_sim: int = 5, eligible=None):
    """Embed (`embed_cold`) and rank (as `recommend_for_cold`) the rows of
    `vecs` in blocks of `retrieval.block_rows(n, 8)` rows, the rule ranking
    sizes its blocks by, drawing warm neighbours and ranked ids from
    `eligible` (default: all); yields (first row, rankings, warm_ids)."""
    step = retrieval.block_rows(g.num_nodes, 8)
    for start in range(0, len(vecs), step):
        theta_s, _, warm = embed_cold(g, features, params,
                                      vecs[start:start + step], k_sim, eligible)
        yield start, retrieval.rank_vectors(index, theta_s, k, *_excluded(
            g.num_nodes, eligible, len(warm))), warm


def attach_and_embed(g: DirectedProductGraph, features: np.ndarray,
                     params: ModelParams, req: ColdStartRequest,
                     eligible: np.ndarray | None = None):
    """Embed one cold product, as a 1-row `embed_cold` block, which checks
    `req`; returns (theta_s, theta_t, warm_ids)."""
    theta_s, theta_t, warm = embed_cold(g, features, params, [req.features],
                                        req.k_sim, eligible)
    return theta_s[0], theta_t[0], warm[0]


def recommend_for_cold(theta_s_cold: np.ndarray,
                       index: retrieval.EmbeddingIndex,
                       k: int) -> list[tuple[int, float]]:
    """Rank warm products for a cold query vector, as a 1-row block of
    related-product retrieval."""
    return retrieval.rank_vectors(index, theta_s_cold[None, :], k,
                                  *np.zeros((2, 0), dtype=np.int64))[0]
