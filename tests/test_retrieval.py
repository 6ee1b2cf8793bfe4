import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from asymgraph import retrieval
from asymgraph.graph import build_graph
from asymgraph.model import DualEmbeddings
from asymgraph.retrieval import (EmbeddingIndex, batch_recommend,
                                 canonical_scores, recommend_related,
                                 top_k_by_score)
from reference import (brute_top_k, float64_rank_vectors, gemv_rank,
                       lexsort_top_k)


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


@st.composite
def sampled_score_blocks(draw):
    """Blocks of 16 to 20 rows and 160k columns or more, which take the
    sampled cut: quarter-step scores (ties), with entries lifted far above
    the every-4th-column sample in other columns, repeated rows, rows
    whose sample is wholly excluded, NaN entries in some rows, and a k
    above the sample size now and then (a single partition again)."""
    b = draw(st.integers(16, 20))
    k = draw(st.integers(1, 3))
    n = draw(st.integers(160 * k - 3, 160 * k + 24))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    scores = rng.integers(-4, 5, size=(b, n)) / 4
    lift = (rng.random((b, n)) < draw(st.sampled_from([0.02, 0.2, 0.6]))) \
        & (np.arange(n) % 4 != 0)
    scores += 8 * lift
    for r in draw(st.lists(st.integers(0, b - 1), max_size=4)):
        scores[r] = scores[draw(st.integers(0, b - 1))]
    count = draw(st.integers(0, 2 * n))
    pairs = list(zip(rng.integers(0, b, count).tolist(),
                     rng.integers(0, n, count).tolist()))
    for r in draw(st.lists(st.integers(0, b - 1), max_size=3)):
        pairs += [(r, i) for i in range(0, n, 4)]
    for r in draw(st.lists(st.integers(0, b - 1), max_size=1)):
        pairs += [(r, i) for i in range(n)]
    if draw(st.integers(0, 3)) == 0:
        scores[draw(st.integers(0, b - 1)), rng.choice(
            n, draw(st.integers(1, 2 * k)), replace=False)] = np.nan
    rows = np.array([r for r, _ in pairs], dtype=np.int64)
    ids = np.array([i for _, i in pairs], dtype=np.int64)
    if draw(st.integers(0, 9)) == 0:
        k = draw(st.integers((n + 3) // 4 + 1, n + 3))
    return scores, k, rows, ids


NO_IDS = np.zeros(0, dtype=np.int64)


@settings(max_examples=200)
@given(score_blocks() | sampled_score_blocks())
# a NaN, which np.partition places above every number, ranks last and
# does not count toward the k-th score: 3, not the NaN, is second
@example((np.array([[5, np.nan, 3, 1]]), 2, NO_IDS, NO_IDS))
def test_top_k_by_score_matches_lexsort_oracle(case):
    """Every row is the lexsort oracle's, NaN scores last. The block
    rescores the (row, id) candidates that its rows alone, each cut by
    one partition, rescore."""
    scores, k, rows, ids = case
    seen = []

    def rescore(block, row):
        def lookup(r, i):
            seen.append((block, (r + row).tolist(), i.tolist()))
            return scores[r + row, i]
        return lookup

    got = top_k_by_score(scores.copy(), k, rows, ids,
                         rescore=rescore("block", 0))
    alone = [top_k_by_score(scores[r:r + 1].copy(), k, 0 * ids[rows == r],
                            ids[rows == r], rescore=rescore("alone", r))[0]
             for r in range(len(scores))]
    want = [lexsort_top_k(scores[r], k, ids[rows == r])
            for r in range(len(scores))]
    assert _bits(got) == _bits(want) == _bits(alone)
    block = [list(c[1:]) for c in seen if c[0] == "block"]
    assert block == [[sum((c[j] for c in seen if c[0] == "alone"), [])
                      for j in (1, 2)]]


@pytest.mark.parametrize("b", [1, 16])
@pytest.mark.parametrize("top", [0, 1])
def test_top_k_by_score_rescores_exactly_the_entries_within_delta(b, top):
    """A 1-row block (one partition) and a 16-row one (the sampled cut),
    with the best float32 score in a sampled column (0) or not (1): an
    entry within delta below it is rescored and wins, one twice delta
    below it is not rescored. With all but one id excluded and k = 2, a row
    returns that id alone."""
    n, delta = 320, 2.0 ** -20
    scores = np.tile(np.linspace(-1, 0, n, dtype=np.float32), (b, 1))
    # 4 float32 ulps below 1, within delta; and twice delta below 1
    scores[:, top], scores[:, 5], scores[:, 9] = 1, 1 - 2.0 ** -22, \
        1 - 2.0 ** -19
    # a rescore that reverses the three: only a candidate can win
    boost = {top: 1.0, 5: 2.0, 9: 3.0}

    def rescore(rows, ids):
        return np.array([boost.get(i, -1.0) for i in ids.tolist()])

    none = np.zeros(0, dtype=np.int64)
    got = top_k_by_score(scores.copy(), 1, none, none, delta, rescore)
    assert got == [[(5, 2.0)]] * b
    rows, ids = np.divmod(np.flatnonzero(np.arange(b * n) % n != 9), n)
    got = top_k_by_score(scores.copy(), 2, rows, ids, delta, rescore)
    assert got == [[(9, 3.0)]] * b


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
    for budget in (1, 6 * 4 * n, retrieval.SCORE_BLOCK_BYTES):
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


@st.composite
def wide_near_tie_cases(draw):
    """16 to 24 queries over 160k products or more: one block of them takes
    the sampled cut. A few drawn rows, and each other row one of them
    repeated, moved by a float64 ulp, or moved by 2^-24 to 2^-20 relative
    (a near tie at float32 resolution); query rows scaled by 2^+-30. Rows
    at ids that are multiples of 4, which the sample reads, may be scaled
    by 2^-20, so that its bound sits far below the k-th score of most
    queries; unscaled, it often ties that score."""
    k = draw(st.integers(1, 2))
    n = draw(st.integers(160 * k - 3, 160 * k + 40))
    d = draw(st.sampled_from([1, 2, 8, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def matrix():
        m = rng.integers(1, 9)
        mat = rng.normal(size=(m, d))[rng.integers(0, m, n)]
        move = rng.integers(0, 4, n)
        mat[move == 1] = np.nextafter(mat[move == 1], -np.inf)
        mat[move == 2] = np.nextafter(mat[move == 2], np.inf)
        step = (move == 3).sum()
        mat[move == 3] *= 1 + rng.choice([-1.0, 1.0], (step, d)) \
            * 2.0 ** -rng.integers(20, 25, (step, 1))
        return mat

    theta_s = matrix() * 2.0 ** rng.integers(-30, 31, (n, 1))
    theta_t = matrix()
    if draw(st.booleans()):
        theta_s[::4] *= 2.0 ** -20
        theta_t[::4] *= 2.0 ** -20
    cp = rng.integers(0, n, (rng.integers(0, 2 * n), 2))
    queries = rng.integers(0, n, draw(st.integers(16, 24))).tolist()
    return (theta_s, theta_t, build_graph(cp, [], n), queries, k,
            draw(st.sampled_from(retrieval.FILTERS)),
            draw(st.sampled_from(["related", "similar"])))


@settings(max_examples=300)
@given(near_tie_cases() | wide_near_tie_cases())
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
        for budget in (1, 6 * 4 * n, retrieval.SCORE_BLOCK_BYTES):
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


# Scales of a whole matrix: 1, beyond float32's range, in its subnormal
# range, and where canonical scores may underflow (every id kept).
MATRIX_SCALES = (1.0, 2.0 ** 200, 2.0 ** -200, 2.0 ** -135, 2.0 ** -600)
# Scales of a row made from another, mostly 1 (a repeat, or a near tie
# when moved): zero, far outside float32's range beside the other rows,
# or in its subnormal range after the matrix is scaled.
ROW_SCALES = (1.0, 1.0, 1.0, 1.0, 0.0, 2.0 ** 200, 2.0 ** -200, 2.0 ** -135)


@st.composite
def float32_matrices(draw, n, d):
    """A few rows with full mantissas (normal draws); each other row is one
    of them, maybe moved by 2^-24 to 2^-20 relative (a near tie at float32
    resolution), times one of ROW_SCALES; in a drawn order."""
    m = draw(st.integers(1, max(1, n // 4)))
    mat = np.empty((n, d))
    mat[:m] = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).normal(
        size=(m, d))
    for j in range(m, n):
        row = mat[draw(st.integers(0, m - 1))]
        if draw(st.booleans()):
            signs = draw(hnp.arrays(np.float64, d,
                                    elements=st.sampled_from([-1.0, 1.0])))
            row = row * (1 + signs * 2.0 ** -draw(st.integers(20, 24)))
        mat[j] = row * draw(st.sampled_from(ROW_SCALES))
    return mat[draw(st.permutations(range(n)))]


@st.composite
def float32_cases(draw):
    n = draw(st.integers(1, 24))
    d = draw(st.sampled_from([1, 2, 3, 8, 64]))
    # queries repeat or move catalogue rows, so their scores nearly tie
    both = draw(float32_matrices(2 * n, d))
    theta_s = both[:n] * draw(st.sampled_from(MATRIX_SCALES))
    theta_t = both[n:] * draw(st.sampled_from(MATRIX_SCALES))
    cp = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                       max_size=2 * n))
    queries = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=12))
    return (theta_s, theta_t, build_graph(cp, [], n), np.array(queries),
            draw(st.integers(1, n + 2)), draw(st.sampled_from(retrieval.FILTERS)),
            draw(st.sampled_from(["related", "similar"])))


def _float32_pass_matches_oracle(index, qs, k, filter, mode):
    """Rank qs[:1], qs[:3] and all of qs in blocks of 1 row, 7 rows and the
    default 128 rows; each must give the float64 oracle's ids and bits."""
    related = mode == "related"
    n = index.num_products
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for rows in (qs[:1], qs[:3], qs):
            want = float64_rank_vectors(
                index, index.theta_s[rows], k,
                *retrieval._exclusions(index, rows, filter), related)
            for budget in (4 * n, 7 * 4 * n, retrieval.SCORE_BLOCK_BYTES):
                with mock.patch.object(retrieval, "SCORE_BLOCK_BYTES",
                                       budget):
                    got = batch_recommend(index, rows, k, filter=filter,
                                          mode=mode)
                assert _bits(got) == _bits(want)


@settings(max_examples=300)
@given(float32_cases())
def test_float32_pass_matches_float64_oracle(case):
    """Near ties at float32 resolution, rows beyond float32's range or in
    its subnormal range, zero and repeated rows, every filter and mode:
    the float32 candidate pass returns the float64 pass's ids and bits."""
    theta_s, theta_t, g, qs, k, filter, mode = case
    _float32_pass_matches_oracle(make_index(theta_s, theta_t, graph=g), qs,
                                 k, filter, mode)


@settings(max_examples=100)
@given(float32_cases(), st.sampled_from([np.inf, -np.inf, np.nan]),
       st.sampled_from([np.inf, -np.inf, np.nan]), st.data())
def test_float32_pass_matches_oracle_with_non_finite_rows(case, bad_t, bad_q,
                                                          data):
    """One catalogue row and one query row hold inf or NaN."""
    theta_s, theta_t, g, qs, k, filter, mode = case
    n, d = theta_t.shape
    column = st.integers(0, d - 1)
    theta_t[data.draw(st.integers(0, n - 1)), data.draw(column)] = bad_t
    theta_s[data.draw(st.sampled_from(qs.tolist())), data.draw(column)] = bad_q
    _float32_pass_matches_oracle(make_index(theta_s, theta_t, graph=g), qs,
                                 k, filter, mode)


@pytest.mark.parametrize("rows", [1, 7, None])
def test_batch_is_one_top_k_call_per_score_block(monkeypatch, rows):
    """`batch_recommend` ranks q queries in ceil(q / r) score blocks of r
    rows, all full but the last: r = SCORE_BLOCK_ROWS (128), or fewer where
    their float32 scores would pass SCORE_BLOCK_BYTES (8 MiB), as at 20k
    products. A cap of 4 n `rows` bytes forces `rows`."""
    top_k = retrieval.top_k_by_score
    blocks = []

    def counted(scores, *args, **kwargs):
        blocks.append(len(scores))
        return top_k(scores, *args, **kwargs)

    monkeypatch.setattr(retrieval, "top_k_by_score", counted)
    for n, per_block in ((40, rows or 128), (20000, rows or 104)):
        theta = unit_rows(np.random.default_rng(11).normal(size=(n, 4)))
        if rows is not None:
            monkeypatch.setattr(retrieval, "SCORE_BLOCK_BYTES", 4 * n * rows)
        blocks.clear()
        queries = np.arange(300) % n
        batch_recommend(make_index(theta, theta), queries, 5)
        full, rest = divmod(len(queries), per_block)
        assert blocks == [per_block] * full + [rest] * (rest > 0)


@pytest.mark.parametrize("n, itemsize, rows", [
    (2000, 4, 128), (20000, 4, 104), (100000, 4, 20),
    (2000, 8, 128), (10000, 8, 104), (100000, 8, 10)])
def test_block_rows_is_one_rule_for_ranking_and_cold_starts(n, itemsize,
                                                            rows):
    """Ranking's float32 blocks (itemsize 4) and cold starts' float64 ones
    (itemsize 8) take SCORE_BLOCK_ROWS rows, fewer where a block would pass
    SCORE_BLOCK_BYTES; never fewer than 1."""
    assert retrieval.block_rows(n, itemsize) == rows
    with mock.patch.object(retrieval, "SCORE_BLOCK_BYTES", 1):
        assert retrieval.block_rows(n, itemsize) == 1
