import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from asymgraph import retrieval
from asymgraph.graph import build_graph
from asymgraph.model import DualEmbeddings
from asymgraph.retrieval import (EmbeddingIndex, batch_recommend,
                                 canonical_scores, recommend_related,
                                 top_k_by_score)
from reference import brute_top_k, gemv_rank, lexsort_top_k


def make_index(theta_s, theta_t, **kw):
    emb = DualEmbeddings(nodes=np.arange(len(theta_s)),
                         theta_s=np.asarray(theta_s, dtype=float),
                         theta_t=np.asarray(theta_t, dtype=float))
    return EmbeddingIndex.build(emb, **kw)


def unit_rows(mat):
    mat = np.asarray(mat, dtype=float)
    return mat / np.linalg.norm(mat, axis=1, keepdims=True)


def test_ranking_by_score():
    theta_s = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.3, 0.3]])
    theta_t = np.array([[0.0, 0.0], [0.9, 0.1], [0.1, 0.4], [0.5, 0.2]])
    index = make_index(theta_s, theta_t)
    # query 0 scores: dot with theta_t rows = [0, 0.9, 0.1, 0.5]
    results = recommend_related(index, 0, 3)
    assert [i for i, _ in results] == [1, 3, 2]
    assert results[0][1] == pytest.approx(0.9)


def test_asymmetry_of_scores():
    theta_s = np.array([[1.0, 0.0], [0.0, 0.0]])
    theta_t = np.array([[0.0, 0.0], [2 ** -0.5, 2 ** -0.5]])
    index = make_index(theta_s, theta_t)
    rel_01 = dict(recommend_related(index, 0, 2))[1]
    assert rel_01 == pytest.approx(2 ** -0.5)
    with pytest.warns(UserWarning, match="zero embedding"):
        assert recommend_related(index, 1, 2) == []


def test_k_larger_than_catalog_clamps():
    theta = unit_rows(np.random.default_rng(0).normal(size=(5, 3)))
    index = make_index(theta, theta)
    assert len(recommend_related(index, 0, 50)) == 5


def test_unknown_query_raises():
    theta = unit_rows(np.random.default_rng(0).normal(size=(4, 3)))
    index = make_index(theta, theta)
    with pytest.raises(KeyError):
        recommend_related(index, 9, 3)
    with pytest.raises(KeyError):
        recommend_related(index, -1, 3)


def test_similar_self_rank_one_without_filter():
    theta_s = unit_rows(np.random.default_rng(1).normal(size=(6, 4)))
    index = make_index(theta_s, theta_s)
    results = batch_recommend(index, [2], 3, filter="none", mode="similar")[0]
    assert results[0][0] == 2
    assert results[0][1] == pytest.approx(1.0)
    filtered = batch_recommend(index, [2], 3, filter="exclude_query",
                               mode="similar")[0]
    assert all(i != 2 for i, _ in filtered)


def test_tie_break_by_id():
    row = np.array([0.6, 0.8])
    theta_s = np.stack([row, row, row])
    index = make_index(theta_s, theta_s)
    results = batch_recommend(index, [0], 3, filter="none", mode="similar")[0]
    assert [i for i, _ in results] == [0, 1, 2]
    assert all(s == pytest.approx(1.0) for _, s in results)


def test_orthogonal_rows_rank_by_id():
    theta_s = np.eye(4)
    index = make_index(theta_s, theta_s)
    results = batch_recommend(index, [0], 4, filter="exclude_query",
                              mode="similar")[0]
    assert [i for i, _ in results] == [1, 2, 3]
    assert all(s == pytest.approx(0.0) for _, s in results)


def test_exclude_train_neighbors():
    g = build_graph([(0, 1), (0, 2)], [], 4)
    theta = unit_rows(np.random.default_rng(3).normal(size=(4, 3)))
    index = make_index(theta, theta, graph=g)
    ids = [i for i, _ in recommend_related(index, 0, 4,
                                           filter="exclude_train_neighbors")]
    assert set(ids) == {3}
    with pytest.raises(ValueError, match="training graph"):
        recommend_related(make_index(theta, theta), 0, 2,
                          filter="exclude_train_neighbors")


def test_batch_matches_single_calls():
    rng = np.random.default_rng(5)
    theta_s = unit_rows(rng.normal(size=(30, 6)))
    theta_t = unit_rows(rng.normal(size=(30, 6)))
    index = make_index(theta_s, theta_t)
    queries = [0, 7, 7, 21]
    rankings = batch_recommend(index, queries, 5)
    assert len(rankings) == len(queries)
    for q, results in zip(queries, rankings):
        assert results == recommend_related(index, q, 5)
    assert rankings[1] == rankings[2]


def test_batch_rejects_bad_input():
    theta = unit_rows(np.random.default_rng(6).normal(size=(4, 3)))
    index = make_index(theta, theta)
    for queries, unknown in (([0, 99, 2], "99"), ([0, -1], "-1")):
        with pytest.raises(KeyError, match=unknown):
            batch_recommend(index, queries, 2)
    with pytest.raises(ValueError, match="mode"):
        batch_recommend(index, [0], 2, mode="relatd")
    with pytest.raises(ValueError, match="k must"):
        batch_recommend(index, [0], 0)
    assert batch_recommend(index, [], 2) == []


def test_exact_matches_brute_force_with_ties():
    rng = np.random.default_rng(9)
    # quantized embeddings force plenty of exact score ties
    theta_s = np.round(rng.normal(size=(40, 4)), 1)
    theta_t = np.round(rng.normal(size=(200, 4)), 1)
    theta_t = np.concatenate([theta_t, theta_t[:50]])  # exact duplicates
    index = make_index(np.vstack([theta_s, np.zeros((250 - 40, 4))]), theta_t)
    every = np.arange(len(theta_t))
    for q in range(40):
        got = recommend_related(index, q, 10)
        want = brute_top_k(canonical_scores(theta_t, every, theta_s[q]), 10)
        assert [i for i, _ in got] == [i for i, _ in want]


# quarter steps in [-1, 1]: many exact ties, and every sum is exact
QUANT = st.integers(-4, 4).map(lambda x: x / 4)


@st.composite
def score_blocks(draw):
    """A score block, k, and (row, id) exclusions with repeats; some rows
    may be wholly excluded."""
    b = draw(st.integers(1, 5))
    n = draw(st.integers(1, 25))
    scores = draw(hnp.arrays(np.float64, (b, n), elements=QUANT))
    pairs = draw(st.lists(st.tuples(st.integers(0, b - 1),
                                    st.integers(0, n - 1)), max_size=3 * n))
    for r in draw(st.lists(st.integers(0, b - 1), max_size=2)):
        pairs += [(r, i) for i in range(n)]
    rows = np.array([r for r, _ in pairs], dtype=np.int64)
    ids = np.array([i for _, i in pairs], dtype=np.int64)
    return scores, draw(st.integers(1, n + 3)), rows, ids


@given(score_blocks())
def test_top_k_by_score_matches_lexsort_oracle(case):
    scores, k, rows, ids = case
    got = top_k_by_score(scores.copy(), k, rows, ids)
    want = [lexsort_top_k(scores[r], k, ids[rows == r])
            for r in range(len(scores))]
    assert got == want


@st.composite
def ranking_cases(draw):
    """Quantised embeddings with zero query rows, a training graph, and a
    query list with repeats and unknown ids."""
    n = draw(st.integers(1, 20))
    d = draw(st.integers(1, 3))
    theta_s = draw(hnp.arrays(np.float64, (n, d), elements=QUANT))
    theta_t = draw(hnp.arrays(np.float64, (n, d), elements=QUANT))
    cp = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                       max_size=3 * n))
    queries = draw(st.lists(st.integers(-1, n), min_size=1, max_size=12))
    return (theta_s, theta_t, build_graph(cp, [], n), queries,
            draw(st.integers(1, n + 2)), draw(st.sampled_from(retrieval.FILTERS)),
            draw(st.sampled_from(["related", "similar"])))


def _oracle_ranking(index, q, k, filter, mode):
    target = index.theta_t if mode == "related" else index.theta_s
    if not np.any(index.theta_s[q]):
        return []
    exclude = {"none": [], "exclude_query": [q],
               "exclude_train_neighbors":
                   [q] + index.graph.cp_out.neighbors(q).tolist()}[filter]
    scores = canonical_scores(target, np.arange(len(target)),
                              index.theta_s[q])
    return lexsort_top_k(scores, k, np.array(exclude, dtype=np.int64))


@given(ranking_cases())
def test_batch_matches_oracle_for_every_block_size(case):
    """The same queries ranked as 1-row, 3-row and whole-list blocks give
    the oracle's ids and score bits; zero query vectors warn and give []."""
    theta_s, theta_t, g, queries, k, filter, mode = case
    index = make_index(theta_s, theta_t, graph=g)
    n = len(theta_s)
    known = [q for q in queries if 0 <= q < n]
    want = [_oracle_ranking(index, q, k, filter, mode) for q in known]
    unknown = [q for q in queries if not 0 <= q < n]
    if unknown:
        with pytest.raises(KeyError, match=re.escape(str(unknown[:5]))):
            batch_recommend(index, queries, k, filter=filter, mode=mode)
    for budget in (1, 3 * 8 * n, retrieval.SCORE_BLOCK_BYTES):
        with mock.patch.object(retrieval, "SCORE_BLOCK_BYTES", budget), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rankings = batch_recommend(index, known, k, filter=filter,
                                       mode=mode)
        assert rankings == want
        zero = sum(not np.any(theta_s[q]) for q in known)
        assert sum("zero embedding" in str(w.message) for w in caught) == zero


def _bits(rankings):
    return [[(i, np.float64(s).view(np.int64)) for i, s in r]
            for r in rankings]


@st.composite
def near_tie_matrices(draw, n, d):
    """Unquantised rows: the first m are drawn, and each of the others
    repeats one of them or moves it by one ulp (`np.nextafter`), so scores
    nearly tie."""
    m = draw(st.integers(1, max(1, n // 2)))
    mat = np.empty((n, d))
    mat[:m] = draw(hnp.arrays(np.float64, (m, d), elements=st.floats(-2, 2)))
    for j in range(m, n):
        row = mat[draw(st.integers(0, m - 1))]
        step = draw(st.sampled_from([0, -np.inf, np.inf]))
        mat[j] = row if step == 0 else np.nextafter(row, step)
    return mat


@st.composite
def near_tie_cases(draw):
    n = draw(st.integers(1, 30))
    d = draw(st.sampled_from([1, 2, 3, 8, 9, 64]))
    theta_s = draw(near_tie_matrices(n, d))
    # scaled query norms
    theta_s *= 2.0 ** draw(hnp.arrays(np.float64, (n, 1),
                                      elements=st.integers(-30, 30)))
    theta_t = draw(near_tie_matrices(n, d))
    cp = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                       max_size=2 * n))
    queries = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=10))
    return (theta_s, theta_t, build_graph(cp, [], n), queries,
            draw(st.integers(1, n + 2)), draw(st.sampled_from(retrieval.FILTERS)),
            draw(st.sampled_from(["related", "similar"])))


@settings(max_examples=300)
@given(near_tie_cases())
def test_near_ties_match_canonical_brute_force(case):
    """On unquantised near-ties, every block size gives the bits of a
    canonical scoring of the whole catalogue; the ids are the per-query
    GEMV ranking's wherever the GEMV scores of its top k + 1 are more than
    delta apart, delta = 4 gamma_d |q| max|t|."""
    theta_s, theta_t, g, queries, k, filter, mode = case
    index = make_index(theta_s, theta_t, graph=g)
    target = theta_t if mode == "related" else theta_s
    n, d = target.shape
    want = [_oracle_ranking(index, q, k, filter, mode) for q in queries]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for budget in (1, 3 * 8 * n, retrieval.SCORE_BLOCK_BYTES):
            with mock.patch.object(retrieval, "SCORE_BLOCK_BYTES", budget):
                got = batch_recommend(index, queries, k, filter=filter,
                                      mode=mode)
            assert _bits(got) == _bits(want)
        gemv = gemv_rank(index, np.array(queries), k + 1, filter, target)
    u, tiny = np.finfo(np.float64).eps / 2, d * 2.0 ** -511
    gamma = d * u / (1 - d * u)
    # a norm loses less than `tiny` to squares that underflow
    max_norm = np.linalg.norm(target, axis=1).max() + tiny
    for q, ranked, top in zip(queries, want, gemv):
        delta = 4 * gamma * (np.linalg.norm(theta_s[q]) + tiny) * max_norm \
            + 4 * d * 2.0 ** -1074
        if np.all(-np.diff([s for _, s in top]) > delta):
            assert [i for i, _ in ranked] == [i for i, _ in top[:k]]
