"""Top-k retrieval over trained embeddings.

Related-product queries score source(q) . target(v); similar-product
queries score source(q) . source(v). A returned score is canonical
(`canonical_scores`): one pairwise row sum, whose bits do not depend on
how many rows are scored. `rank_vectors` scores a block of queries with
one GEMM, keeps in each row the ids within delta = 4 gamma_d |q| max|t|
(|q| the block's largest, gamma_d = d u / (1 - d u), u = 2^-53) of its
k-th GEMM score, and cuts them to the best k canonical scores, ties by id.
Both scores lie within gamma_d |q| |t| of the exact dot, so no canonical
top-k id is lost.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import DirectedProductGraph
from .model import DualEmbeddings

FILTERS = ("none", "exclude_query", "exclude_train_neighbors")
MODES = ("related", "similar")

# Score-block budget: rows per block = this many bytes of float64 scores
# over the catalogue. Larger blocks gain little and raise the peak memory.
SCORE_BLOCK_BYTES = 1 << 20


@dataclass
class EmbeddingIndex:
    theta_s: np.ndarray
    theta_t: np.ndarray
    graph: DirectedProductGraph | None = None

    @property
    def num_products(self) -> int:
        return self.theta_t.shape[0]

    @cached_property
    def max_norms(self) -> tuple[float, float]:
        """Largest row norm of theta_s and of theta_t (index by `related`)."""
        return tuple(float(np.linalg.norm(m, axis=1).max(initial=0.0))
                     for m in (self.theta_s, self.theta_t))

    @classmethod
    def build(cls, emb: DualEmbeddings,
              graph: DirectedProductGraph | None = None) -> "EmbeddingIndex":
        return cls(theta_s=emb.theta_s, theta_t=emb.theta_t, graph=graph)


def canonical_scores(target: np.ndarray, ids, vecs) -> np.ndarray:
    """Score of each (vecs[j], target[ids[j]]) pair."""
    return np.add.reduce(target.take(ids, axis=0) * vecs, axis=1)


def top_k_by_score(scores: np.ndarray, k: int, exclude_rows: np.ndarray,
                   exclude_ids: np.ndarray, delta=0.0,
                   rescore=None) -> list[list[tuple[int, float]]]:
    """Best k of each row of a (queries, catalogue) score block, by
    descending score (or `rescore(rows, ids)`), ties by ascending id. Only
    entries at least a row's k-th score (one partition) minus `delta` are
    sorted. The block is overwritten: entry (exclude_rows[j],
    exclude_ids[j]) is set to -inf; -inf is never returned, NaN ranks last.
    """
    b, n = scores.shape
    k = min(k, n)
    if k < 1:
        return [[] for _ in range(b)]
    scores[exclude_rows, exclude_ids] = -np.inf
    kth = np.partition(scores, n - k, axis=1)[:, n - k] - delta
    # `~(<)` keeps NaN, which np.partition places above every number
    rows, ids = np.nonzero(~(scores < kth[:, None]))
    vals = scores[rows, ids] if rescore is None else rescore(rows, ids)
    live = (scores[rows, ids] != -np.inf) & (vals != -np.inf)
    rows, ids, vals = rows[live], ids[live], vals[live]
    # rows stay sorted, as np.nonzero gives them; the sort orders each row
    order = np.lexsort((ids, -vals, rows))
    ids, vals = ids[order].tolist(), vals[order].tolist()
    starts = np.searchsorted(rows, np.arange(b + 1)).tolist()
    return [list(zip(ids[s:min(s + k, e)], vals[s:min(s + k, e)]))
            for s, e in zip(starts, starts[1:])]


def rank_vectors(index: EmbeddingIndex, vecs: np.ndarray, k: int,
                 exclude_rows: np.ndarray, exclude_ids: np.ndarray,
                 related: bool = True) -> list[list[tuple[int, float]]]:
    """Best k (id, canonical score) of each query vector in a block; a zero
    query vector warns and gets no results."""
    if k < 1:
        raise ValueError("k must be >= 1")
    target = index.theta_t if related else index.theta_s
    d, u, tiny = target.shape[1], 2.0 ** -53, 2.0 ** -511
    # delta at the block's largest |q|, doubled to round it up: norms, delta
    # and K - delta round by about u |q| max|t|; d tiny etc. cover underflow.
    delta = 8 * d * u / (1 - d * u) * (index.max_norms[related] + d * tiny) \
        * (math.sqrt((vecs * vecs).sum(axis=1).max(initial=0.0)) + d * tiny) \
        + 4 * d * 2.0 ** -1074
    results = top_k_by_score(
        vecs @ target.T, k, exclude_rows, exclude_ids, delta,
        lambda rows, ids: canonical_scores(target, ids, vecs.take(rows, 0)))
    for i in np.flatnonzero(~vecs.any(axis=1)):
        warnings.warn("a query has a zero embedding; returning no results "
                      "for it", stacklevel=2)
        results[i] = []
    return results


def _exclusions(index: EmbeddingIndex, qs: np.ndarray,
                filter: str) -> tuple[np.ndarray, np.ndarray]:
    """(block row, id) pairs that a filter removes from each query's row."""
    if filter not in FILTERS:
        raise ValueError(f"filter must be one of {FILTERS}")
    rows = np.arange(len(qs))
    if filter == "none":
        return rows[:0], qs[:0]
    if filter == "exclude_query":
        return rows, qs
    if index.graph is None:
        raise ValueError("exclude_train_neighbors requires an index built "
                         "with the training graph")
    deg, nbrs = index.graph.cp_out.rows(qs)
    return (np.concatenate([rows, np.repeat(rows, deg)]),
            np.concatenate([qs, nbrs]))


def _rank(index: EmbeddingIndex, qs: np.ndarray, k: int, filter: str,
          related: bool) -> list[list[tuple[int, float]]]:
    """Rankings for a block of known query ids."""
    return rank_vectors(index, index.theta_s[qs], k,
                        *_exclusions(index, qs, filter), related)


def recommend_related(index: EmbeddingIndex, q: int, k: int,
                      filter: str = "none") -> list[tuple[int, float]]:
    """Top-k related products for query q by source(q) . target(v)."""
    if not 0 <= q < index.num_products:
        raise KeyError(f"unknown product id {q}")
    return _rank(index, np.array([q]), k, filter, True)[0]


def batch_recommend(index: EmbeddingIndex, queries, k: int,
                    filter: str = "none",
                    mode: str = "related") -> list[list[tuple[int, float]]]:
    """One top-k (id, score) list per query, in query order, ranked in
    blocks of SCORE_BLOCK_BYTES. Mode "related" scores source(q) . target(v)
    and "similar" source(q) . source(v); a similar ranking keeps q itself
    unless the filter removes it."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    qs = np.asarray(queries, dtype=np.int64)
    unknown = qs[(qs < 0) | (qs >= index.num_products)]
    if len(unknown):
        raise KeyError(f"unknown product ids {unknown[:5].tolist()}")
    step = max(1, SCORE_BLOCK_BYTES // (8 * max(index.num_products, 1)))
    return [res for start in range(0, len(qs), step)
            for res in _rank(index, qs[start:start + step], k, filter,
                             mode == "related")]
