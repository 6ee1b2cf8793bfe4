"""Cold-start embedding: attach new products to feature-similar warm
products and run the trained model over the augmented neighbourhoods.

Cold products are embedded in blocks of `retrieval.block_rows(n, 8)` rows,
one float64 cosine block each, over a disjoint union in which key
r (n + 1) + u is node u of request r and u = n its cold node: co-view
neighbour of its warm ids, and last in each of their rows. Sorted by key,
each request sees the base graph plus its one node, as if alone, and keeps
its bits. Cold products never see each other or touch the base graph.
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


def _ineligible(n: int, eligible) -> np.ndarray:
    """Ids below `n` outside `eligible` (none when it is None)."""
    if eligible is None:
        return np.arange(0)
    return np.setdiff1d(np.arange(n), eligible)


def find_warm_neighbors(features: np.ndarray, vecs: np.ndarray, k_sim: int,
                        eligible: np.ndarray | None = None) -> np.ndarray:
    """Top warm products by cosine similarity of input features, ties by id,
    a row of ids for each row of a block of cold vectors: the catalogue
    norms are taken once, each row gets one GEMV, and the block's cosines
    are cut in one piece. `eligible` optionally restricts the candidate
    pool (e.g. to train nodes when held-out nodes share the feature
    matrix)."""
    if vecs.shape[1] != features.shape[1]:
        raise ValueError(
            f"feature dim mismatch: cold {vecs.shape[1]}, warm {features.shape[1]}")
    # a norm outside [2^-500, 2^500] may come out 0, inexact or inf, as its
    # squares underflow or overflow; scaling by a power of two is exact and
    # keeps the cosines, so the cold vectors and any such row are scaled
    vecs = _pow2_scaled(vecs)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(features, axis=1)
    odd = np.flatnonzero(~((norms >= 2.0 ** -500) & (norms <= 2.0 ** 500)))
    rows = _pow2_scaled(features[odd])
    norms[odd] = np.linalg.norm(rows, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    cos = np.empty((len(vecs), len(features)))
    for i, v in enumerate(vecs):
        dots = features @ v
        dots[odd] = rows @ v
        np.divide(dots, safe * np.linalg.norm(v), out=cos[i])
    cos[:, _ineligible(len(features), eligible)] = -np.inf
    top = retrieval.top_k_by_score(cos, k_sim, [], [])
    return np.array([[i for i, _ in row] for row in top],
                    dtype=np.int64).reshape(len(vecs), -1)


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
    `vecs` in blocks of `retrieval.block_rows(n, 8)` rows, drawing warm
    neighbours and ranked ids from `eligible` (default: all); yields (first
    row, rankings, warm_ids) per block."""
    ineligible = _ineligible(g.num_nodes, eligible)
    step = retrieval.block_rows(g.num_nodes, 8)
    for start in range(0, len(vecs), step):
        theta_s, _, warm = embed_cold(g, features, params,
                                      vecs[start:start + step], k_sim, eligible)
        rows = np.repeat(np.arange(len(warm)), len(ineligible))
        yield start, retrieval.rank_vectors(
            index, theta_s, k, rows, np.tile(ineligible, len(warm))), warm


def attach_and_embed(g: DirectedProductGraph, features: np.ndarray,
                     params: ModelParams, req: ColdStartRequest,
                     eligible: np.ndarray | None = None):
    """Embed one cold product, as a 1-row `embed_cold` block, which checks
    `req`; returns (theta_s, theta_t, warm_ids)."""
    theta_s, theta_t, warm = embed_cold(g, features, params, [req.features],
                                        req.k_sim, eligible)
    return theta_s[0], theta_t[0], warm[0]


def recommend_for_cold(theta_s_cold: np.ndarray,
                       index: retrieval.EmbeddingIndex, k: int,
                       exclude=None) -> list[tuple[int, float]]:
    """Rank warm products for a cold query vector, as a 1-row block of
    related-product retrieval, with an optional id exclusion list."""
    excl = np.asarray([] if exclude is None else exclude, dtype=np.int64)
    return retrieval.rank_vectors(index, theta_s_cold[None, :], k,
                                  np.zeros_like(excl), excl)[0]
