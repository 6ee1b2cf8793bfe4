"""Top-k retrieval over trained embeddings.

Related-product queries score source(q) . target(v); similar-product
queries score source(q) . source(v). A returned score is canonical
(`canonical_scores`): one pairwise row sum, whose bits do not depend on
how many rows are scored. `rank_vectors` scores a block in float32, keeps in
each row the ids within delta32 of its k-th float32 score (rounded down) and
cuts them to the best k canonical scores, ties by id. Target and queries are
scaled by powers of two to a largest finite magnitude in [0.5, 1), so in
scaled units |q| < sqrt(d). With T the largest target row norm and g(m, u) =
m u / (1 - m u), delta32 = 4 (g(d + 2, 2^-24) + g(d, 2^-53)) sqrt(d) T +
22 d 2^-126 doubles the float32 (two casts, any dot order, any underflow)
and canonical error bounds of two scores: float32 never decides an output.
Non-finite input, or a scale at which canonical scores may overflow or lose
2^-126 to underflow, keeps every id.

Blocks hold `block_rows(n, 4)` queries (128; 20 at 100k products). A
row's k-th score comes from one partition of the row or, in blocks of 16
rows or more whose every 4th column holds 40k columns or more, from a
partition of that sample (a lower bound on it) and one of the few entries
at or above the bound minus delta. Both give the same k-th score, so the
same ids are kept.
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

# Rows and bytes of a score block, measured: at 10k products a 128-row
# sgemm costs half as much a query as a 26-row one (64 rows gain less).
# Ranking's float32 blocks get 128 rows up to 16,384 products, 20 at 100k;
# cold starts' float64 cosine blocks 128 at 2k, 104 at 10k and 10 at 100k.
SCORE_BLOCK_ROWS = 128
SCORE_BLOCK_BYTES = 8 << 20


def block_rows(n: int, itemsize: int) -> int:
    """Rows per block of `itemsize`-byte scores over `n` products."""
    return max(1, min(SCORE_BLOCK_ROWS,
                      SCORE_BLOCK_BYTES // (itemsize * max(n, 1))))


def _scaled32(m: np.ndarray) -> tuple[np.ndarray, int, float]:
    """(2^-e m in float32, e, delta32); 2^-e puts max finite |m| in [.5, 1)"""
    d, mag = m.shape[1], np.abs(m)
    e = math.frexp(mag.max(initial=0.0, where=np.isfinite(mag)))[1]
    hat = np.ldexp(m, -e)
    g = sum(j * u / (1 - j * u) for j, u in ((d + 2, 2 ** -24), (d, 2 ** -53)))
    t = np.linalg.norm(hat, axis=1).max(initial=0.0) + d * 2.0 ** -511
    return (hat.astype(np.float32), e,
            float(4 * g * math.sqrt(d) * t + 22 * d * 2.0 ** -126))


@dataclass
class EmbeddingIndex:
    theta_s: np.ndarray
    theta_t: np.ndarray
    graph: DirectedProductGraph | None = None

    @property
    def num_products(self) -> int:
        return self.theta_t.shape[0]

    source32 = cached_property(lambda self: _scaled32(self.theta_s))
    target32 = cached_property(lambda self: _scaled32(self.theta_t))

    @classmethod
    def build(cls, emb: DualEmbeddings,
              graph: DirectedProductGraph | None = None) -> "EmbeddingIndex":
        return cls(theta_s=emb.theta_s, theta_t=emb.theta_t, graph=graph)


def canonical_scores(target: np.ndarray, ids, vecs) -> np.ndarray:
    """Score of each (vecs[j], target[ids[j]]) pair."""
    return np.add.reduce(target.take(ids, axis=0) * vecs, axis=1)


def _low(kth: np.ndarray, delta, dtype) -> np.ndarray:
    """Each row's keep threshold: its k-th score minus delta, in float64,
    rounded down to the block's dtype (NaN keeps every entry)."""
    return np.nextafter((kth.astype(float) - delta).astype(dtype), -np.inf)


def _kth(scores: np.ndarray, k: int) -> np.ndarray:
    """Each row's k-th largest, or NaN (keep all) where its top k hold NaN."""
    top = np.partition(scores, scores.shape[1] - k, axis=1)[:, -k:]
    return np.where(np.isnan(top).any(axis=1), np.nan, top[:, 0])


def _sampled_candidates(scores, k, exclude_rows, exclude_ids, delta):
    """(rows, ids) that `top_k_by_score`'s cut keeps, in flat order, or
    None where a row's k-th score is NaN. The k-th score of every 4th
    column is at most the row's, so the entries at or above it minus delta
    hold each one the cut keeps, and the row's k-th score is their k-th."""
    b, n = scores.shape
    low = _low(_kth(scores[:, ::4], k), delta, scores.dtype)
    pre = ~(scores < low[:, None])
    pre[exclude_rows, exclude_ids] = False
    rows, ids = np.divmod(np.flatnonzero(pre), n)
    vals = scores[rows, ids]
    # each row's entries left-aligned over -inf, as excluded ones read
    counts = np.bincount(rows, minlength=b)
    pad = np.full((b, max(k, counts.max())), -np.inf, scores.dtype)
    pad[rows, np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]] = vals
    kth = _kth(pad, k)
    if np.isnan(kth).any():   # the cut would keep every entry of its row
        return None
    keep = ~(vals < _low(kth, delta, scores.dtype)[rows])
    return rows[keep], ids[keep]


def top_k_by_score(scores: np.ndarray, k: int, exclude_rows: np.ndarray,
                   exclude_ids: np.ndarray, delta=0.0,
                   rescore=None) -> list[list[tuple[int, float]]]:
    """Best k of each row of a (queries, catalogue) score block, by
    descending score (or `rescore(rows, ids)`), ties by ascending id. Only
    entries at least a row's k-th score minus `delta`, rounded down (all
    if NaN or a NaN is among its k best), are sorted. That k-th score
    comes from one partition of the block, or, given a finite delta, 16
    rows or more and 40k columns or more in every 4th column, from
    `_sampled_candidates`. The block is overwritten: entry (exclude_rows[j],
    exclude_ids[j]) is set to -inf; -inf is never returned, NaN ranks last."""
    b, n = scores.shape
    k = min(k, n)
    if k < 1:
        return [[] for _ in range(b)]
    scores[exclude_rows, exclude_ids] = -np.inf
    cut = None
    # the sample's own passes cost more than they save on fewer rows, or
    # on fewer columns (measured at k = 5 to 50 and 2k to 10k columns)
    if b >= 16 and (n + 3) // 4 >= 40 * k and not math.isnan(delta):
        cut = _sampled_candidates(scores, k, exclude_rows, exclude_ids, delta)
    if cut is None:
        # `~(<)` keeps NaN, and every entry where the k-th score is NaN
        keep = ~(scores < _low(_kth(scores, k), delta, scores.dtype)[:, None])
        keep[exclude_rows, exclude_ids] = False
        cut = np.divmod(np.flatnonzero(keep), n)
    rows, ids = cut
    vals = scores[rows, ids] if rescore is None else rescore(rows, ids)
    live = vals != -np.inf
    rows, ids, vals = rows[live], ids[live], vals[live]
    # rows stay sorted, as the flat scan gives them; the sort orders each row
    order = np.lexsort((ids, -vals, rows))
    ids, vals = ids[order].tolist(), vals[order].tolist()
    starts = np.searchsorted(rows, np.arange(b + 1)).tolist()
    return [list(zip(ids[s:min(s + k, e)], vals[s:min(s + k, e)]))
            for s, e in zip(starts, starts[1:])]


def rank_vectors(index: EmbeddingIndex, vecs: np.ndarray, k: int,
                 exclude_rows: np.ndarray, exclude_ids: np.ndarray,
                 related: bool = True) -> list[list[tuple[int, float]]]:
    """Best k (id, canonical score) per query vector, in float32 blocks of
    `block_rows(n, 4)` rows; a zero query vector warns and gets none."""
    if k < 1:
        raise ValueError("k must be >= 1")
    target = index.theta_t if related else index.theta_s
    t32, e_t, delta = index.target32 if related else index.source32
    n, d = target.shape
    top = float(np.abs(vecs).max(initial=0.0))
    e_q = math.frexp(top)[1]
    q32 = np.ldexp(vecs, -e_q).astype(np.float32)
    if not (math.isfinite(top + delta)
            and -900 <= e_q + e_t <= 1020 - d.bit_length()):
        delta = math.nan   # keeps every id
    excluded = np.sort(exclude_rows * np.int64(n) + exclude_ids)   # by block
    step = block_rows(n, 4)
    results = []
    for s in range(0, len(vecs), step):
        lo, hi = np.searchsorted(excluded, (s * n, (s + step) * n))
        results += top_k_by_score(
            q32[s:s + step] @ t32.T, k, *np.divmod(excluded[lo:hi] - s * n, n),
            delta, lambda rows, ids, s=s:
            canonical_scores(target, ids, vecs.take(rows + s, 0)))
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


def recommend_related(index: EmbeddingIndex, q: int, k: int,
                      filter: str = "none") -> list[tuple[int, float]]:
    """Top-k related products for query q by source(q) . target(v)."""
    if not 0 <= q < index.num_products:
        raise KeyError(f"unknown product id {q}")
    qs = np.array([q])
    return rank_vectors(index, index.theta_s[qs], k,
                        *_exclusions(index, qs, filter))[0]


def batch_recommend(index: EmbeddingIndex, queries, k: int,
                    filter: str = "none",
                    mode: str = "related") -> list[list[tuple[int, float]]]:
    """One top-k (id, score) list per query, in query order, ranked by one
    `rank_vectors` call. Mode "related" scores source(q) . target(v)
    and "similar" source(q) . source(v); a similar ranking keeps q itself
    unless the filter removes it."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    qs = np.asarray(queries, dtype=np.int64)
    unknown = qs[(qs < 0) | (qs >= index.num_products)]
    if len(unknown):
        raise KeyError(f"unknown product ids {unknown[:5].tolist()}")
    return rank_vectors(index, index.theta_s[qs], k,
                        *_exclusions(index, qs, filter), mode == "related")
