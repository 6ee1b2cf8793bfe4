"""Top-k retrieval over trained embeddings.

Related-product queries score source(q) . target(v); similar-product
queries score source(q) . source(v). Every ranking goes through one exact
engine, `top_k_by_score`: brute-force scores for a block of queries, then
a partial selection of each row's best k. Ties break by ascending id so
results are deterministic.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .graph import DirectedProductGraph, KeyMap
from .model import DualEmbeddings

FILTERS = ("none", "exclude_query", "exclude_train_neighbors")

# Score-block budget: rows per block = this many bytes of float64 scores
# over the catalogue. Larger blocks gain little and raise the peak memory.
SCORE_BLOCK_BYTES = 1 << 20


@dataclass
class EmbeddingIndex:
    theta_s: np.ndarray
    theta_t: np.ndarray
    key_map: KeyMap | None = None
    graph: DirectedProductGraph | None = None

    @property
    def num_products(self) -> int:
        return self.theta_t.shape[0]

    @classmethod
    def build(cls, emb: DualEmbeddings, key_map: KeyMap | None = None,
              graph: DirectedProductGraph | None = None) -> "EmbeddingIndex":
        return cls(theta_s=emb.theta_s, theta_t=emb.theta_t,
                   key_map=key_map, graph=graph)

    def _check_query(self, q: int) -> None:
        if not 0 <= q < self.num_products:
            raise KeyError(f"unknown product id {q}")


def top_k_by_score(scores: np.ndarray, k: int, exclude_rows: np.ndarray,
                   exclude_ids: np.ndarray) -> list[list[tuple[int, float]]]:
    """Best k of each row of a (queries, catalogue) score block, by
    descending score, ties by ascending id.

    The block is overwritten: entry (exclude_rows[j], exclude_ids[j]) is
    set to -inf, and -inf entries are never returned. NaN scores rank
    after every number. Only entries at or above a row's k-th score (found
    by one partition of the block) are sorted.
    """
    b, n = scores.shape
    k = min(k, n)
    if k < 1:
        return [[] for _ in range(b)]
    scores[exclude_rows, exclude_ids] = -np.inf
    kth = np.partition(scores, n - k, axis=1)[:, n - k, None]
    # `~(<)` keeps NaN, which np.partition places above every number
    rows, ids = np.nonzero(~(scores < kth))
    vals = scores[rows, ids]
    live = vals != -np.inf
    rows, ids, vals = rows[live], ids[live], vals[live]
    order = np.lexsort((ids, -vals, rows))
    rows, ids, vals = rows[order], ids[order], vals[order]
    counts = np.bincount(rows, minlength=b)
    rank = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
    keep = rank < k
    ids, vals = ids[keep].tolist(), vals[keep].tolist()
    ends = np.cumsum(np.minimum(counts, k)).tolist()
    return [list(zip(ids[s:e], vals[s:e])) for s, e in zip([0] + ends, ends)]


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
          target: np.ndarray) -> list[list[tuple[int, float]]]:
    """Rankings for a block of known query ids."""
    if k < 1:
        raise ValueError("k must be >= 1")
    exclude_rows, exclude_ids = _exclusions(index, qs, filter)
    scores = np.empty((len(qs), index.num_products))
    for i, q in enumerate(qs):
        # one GEMV per query: a block GEMM rounds differently, and a
        # query's scores must not depend on its block
        scores[i] = target @ index.theta_s[q]
    results = top_k_by_score(scores, k, exclude_rows, exclude_ids)
    for i in np.flatnonzero(~index.theta_s[qs].any(axis=1)):
        warnings.warn(f"query {qs[i]} has a zero embedding; returning no "
                      "results", stacklevel=3)
        results[i] = []
    return results


def _recommend(index: EmbeddingIndex, q: int, k: int, filter: str,
               target: np.ndarray) -> list[tuple[int, float]]:
    index._check_query(q)
    return _rank(index, np.array([q], dtype=np.int64), k, filter, target)[0]


def recommend_related(index: EmbeddingIndex, q: int, k: int,
                      filter: str = "none") -> list[tuple[int, float]]:
    """Top-k related products for query q by source(q) . target(v)."""
    return _recommend(index, q, k, filter, index.theta_t)


def recommend_similar(index: EmbeddingIndex, q: int, k: int,
                      filter: str = "exclude_query") -> list[tuple[int, float]]:
    """Top-k similar products by source(q) . source(v); the query itself
    is excluded by default since a unit vector is its own argmax."""
    return _recommend(index, q, k, filter, index.theta_s)


@dataclass
class BatchEntry:
    query: int
    results: list[tuple[int, float]] = field(default_factory=list)
    error: str | None = None


def batch_recommend(index: EmbeddingIndex, queries, k: int,
                    filter: str = "none",
                    mode: str = "related") -> list[BatchEntry]:
    """Per-query recommendations, ranked in blocks of SCORE_BLOCK_BYTES;
    unknown ids become per-query error entries while the rest proceed."""
    target = index.theta_t if mode == "related" else index.theta_s
    entries = [BatchEntry(query=int(q)) for q in queries]
    known = []
    for e in entries:
        try:
            index._check_query(e.query)
            known.append(e)
        except KeyError as exc:
            e.error = str(exc)
    step = max(1, SCORE_BLOCK_BYTES // (8 * max(index.num_products, 1)))
    for start in range(0, len(known), step):
        block = known[start:start + step]
        qs = np.array([e.query for e in block], dtype=np.int64)
        for e, res in zip(block, _rank(index, qs, k, filter, target)):
            e.results = res
    return entries
