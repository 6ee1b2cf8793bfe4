import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from asymgraph import coldstart, retrieval
from asymgraph.coldstart import (ColdStartRequest, attach_and_embed,
                                 embed_cold, find_warm_neighbors,
                                 recommend_for_cold)
from asymgraph.evaluation import run_task
from asymgraph.graph import build_graph
from asymgraph.model import ModelParams, embed_all
from asymgraph.retrieval import EmbeddingIndex
from reference import (canonical_warm_neighbors, lexsort_warm_neighbors,
                       rebuild_attach_and_embed)


def test_identical_feature_is_top_warm_neighbor():
    rng = np.random.default_rng(0)
    features = rng.normal(size=(10, 4))
    warm = find_warm_neighbors(features, features[[6]], 3)
    assert warm.shape == (1, 3) and warm[0, 0] == 6


def test_eligible_mask_respected():
    rng = np.random.default_rng(1)
    features = rng.normal(size=(10, 4))
    warm = find_warm_neighbors(features, features[[6]], 3,
                               eligible=np.array([0, 1, 2]))
    assert set(warm[0].tolist()) <= {0, 1, 2}


@st.composite
def warm_cases(draw):
    """Small-integer features, so cosines tie often; zero rows included."""
    n = draw(st.integers(1, 30))
    d = draw(st.integers(1, 3))
    ints = st.integers(-2, 2).map(float)
    features = draw(hnp.arrays(np.float64, (n, d), elements=ints))
    vec = draw(hnp.arrays(np.float64, d, elements=ints)
               .filter(lambda v: np.any(v)))
    eligible = draw(st.none() | st.lists(st.integers(0, n - 1), max_size=n)
                    .map(lambda e: np.array(e, dtype=np.int64)))
    return features, vec, draw(st.integers(1, n + 2)), eligible


@given(warm_cases())
def test_find_warm_neighbors_matches_lexsort_oracle(case):
    features, vec, k_sim, eligible = case
    got = find_warm_neighbors(features, vec[None], k_sim, eligible=eligible)[0]
    want = lexsort_warm_neighbors(features, vec, k_sim, eligible)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@st.composite
def canonical_warm_cases(draw):
    """Base rows of quarter steps or of full mantissas; every other warm
    row, and every cold row, repeats one, permutes it or moves its non-zero
    entries by an ulp, and scales it by 1, 0, 2^+-600 or 2^+-499 or 2^+-500
    (norms near the edges of the range that is not rescaled). Cosines tie
    or nearly tie, and some norms underflow or overflow. Against a constant
    cold row, a permuted row ties exactly, but its dots round by the
    summation order."""
    n = draw(st.integers(1, 30))
    d = draw(st.sampled_from([1, 2, 3, 8, 9, 64]))
    m = draw(st.integers(1, max(1, n // 2)))
    if draw(st.booleans()):
        quarters = st.integers(-8, 8).map(lambda i: i / 4)
        base = draw(hnp.arrays(np.float64, (m, d), elements=quarters))
    else:
        base = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))
                                     ).normal(size=(m, d))

    def derived(count):
        rows = np.empty((count, d))
        for j in range(count):
            row = base[draw(st.integers(0, m - 1))]
            move = draw(st.sampled_from(["none", "permute", "down", "up"]))
            if move == "permute":
                row = row[draw(st.permutations(range(d)))]
            elif move != "none":
                step = np.inf if move == "up" else -np.inf
                row = np.where(row == 0, row, np.nextafter(row, step))
            rows[j] = row * draw(st.sampled_from(
                [1.0, 1.0, 0.0, 2.0 ** 600, 2.0 ** -600, 2.0 ** 499,
                 2.0 ** -499, 2.0 ** 500, 2.0 ** -500]))
        return rows

    features = np.concatenate([base, derived(n - m)])[
        draw(st.permutations(range(n)))]
    vecs = np.concatenate([derived(draw(st.integers(1, 6))),
                           np.ones((draw(st.integers(0, 2)), d))])
    vecs[~vecs.any(axis=1)] = 1.0
    eligible = draw(st.none() | st.lists(st.integers(0, n - 1), max_size=n)
                    .map(lambda e: np.array(e, dtype=np.int64)))
    return features, vecs, draw(st.integers(1, n + 2)), eligible


@settings(max_examples=200)
@given(canonical_warm_cases())
# a NaN-featured product ranks last: it must not displace product 2
@example((np.array([[1, 0], [np.nan, 1], [0.9, 0.1], [0, 1]]),
          np.array([[1, 0.05]]), 2, None))
def test_find_warm_neighbors_matches_canonical_brute_force(case):
    """At blocks of 1 row, 3 rows and all rows, every row's warm ids are
    the canonical oracle's, on near ties and scaled rows, with no
    warning: the float64 GEMM never decides an id."""
    features, vecs, k_sim, eligible = case
    want = [canonical_warm_neighbors(features, v, k_sim, eligible)
            for v in vecs]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for size in (1, 3, len(vecs)):
            for start in range(0, len(vecs), size):
                got = find_warm_neighbors(features, vecs[start:start + size],
                                          k_sim, eligible)
                for row, w in zip(got, want[start:]):
                    assert row.dtype == w.dtype and np.array_equal(row, w)


def test_find_warm_neighbors_ties_by_id():
    features = np.array([[1.0, 0.0]] * 3 + [[2.0, 0.0]] * 3 + [[0.0, 1.0]])
    vec = np.array([[1.0, 0.0]])
    assert find_warm_neighbors(features, vec, 4).tolist() == [[0, 1, 2, 3]]
    assert find_warm_neighbors(features, vec, 2, eligible=np.array(
        [6, 5, 1])).tolist() == [[1, 5]]
    assert find_warm_neighbors(features, vec, 3,
                               eligible=np.array([], dtype=np.int64)).size == 0


def test_find_warm_neighbors_survives_underflowing_norms():
    """Squares of 1e-200 underflow to 0: the cold vector must still find
    the warm row equal to it first, without a divide warning."""
    features = np.array([[1e-200, 1e-200], [1.0, -1.0], [0.5, 0.4]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warm = find_warm_neighbors(features, np.array([[1e-200, 1e-200]]), 2)
    assert warm.tolist() == [[0, 2]]


@pytest.mark.parametrize("exp", [600, -600])
def test_find_warm_neighbors_ignores_power_of_two_scale(exp):
    """Scaling the cold vector, or a warm row, by 2^+-600 (squares that
    overflow or underflow) leaves the whole neighbour order as it is."""
    rng = np.random.default_rng(3)
    features = rng.normal(size=(40, 6))
    features[7] = 0.0
    vec = rng.normal(size=(1, 6))
    want = find_warm_neighbors(features, vec, 40)
    scaled = features.copy()
    scaled[[4, 9]] = np.ldexp(scaled[[4, 9]], exp)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.array_equal(
            find_warm_neighbors(features, np.ldexp(vec, exp), 40), want)
        assert np.array_equal(find_warm_neighbors(scaled, vec, 40), want)


def test_attach_and_embed_matches_rebuild_oracle(mini_corpus):
    _cfg, data, g = mini_corpus
    X = data.features
    rng = np.random.default_rng(11)
    params = ModelParams.init(X.shape[1], 6, 3, rng)
    eligible = np.arange(0, g.num_nodes, 2)
    for i, node in enumerate((0, 17, 42, 77, 101)):
        req = ColdStartRequest(key="c", features=X[node] + rng.normal(size=X.shape[1]),
                               k_sim=1 + i)
        for elig in (None, eligible):
            got = attach_and_embed(g, X, params, req, eligible=elig)
            want = rebuild_attach_and_embed(g, X, params, req, eligible=elig)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)


def test_request_validation():
    """`attach_and_embed` refuses a zero, non-finite or k_sim 0 request."""
    g = build_graph([(0, 1)], [], 2)
    X = np.ones((2, 2))
    params = ModelParams([np.eye(2)])
    for features, k_sim, match in ((np.zeros(2), 5, "zeros"),
                                   (np.array([1.0, np.nan]), 5, "finite"),
                                   (np.ones(2), 0, "k_sim")):
        req = ColdStartRequest(key="c", features=features, k_sim=k_sim)
        with pytest.raises(ValueError, match=match):
            attach_and_embed(g, X, params, req)


def test_dimension_mismatch_rejected():
    g = build_graph([(0, 1)], [], 2)
    X = np.ones((2, 3))
    params = ModelParams([np.eye(3)])
    req = ColdStartRequest(key="c", features=np.ones(5))
    with pytest.raises(ValueError, match="dim"):
        attach_and_embed(g, X, params, req)


def test_single_warm_identity_weights_hand_case():
    """One cv attachment with identity weights: both cold channels equal
    normalize(relu(warm feature))."""
    g = build_graph([(0, 1)], [], 2)
    X = np.array([[0.8, -0.4, 0.2], [0.1, 0.5, 0.9]])
    params = ModelParams([np.eye(3)])
    req = ColdStartRequest(key="c", features=X[0] + 1e-9, k_sim=1)
    theta_s, theta_t, warm = attach_and_embed(g, X, params, req)
    assert warm.tolist() == [0]
    expected = np.maximum(X[0], 0.0)
    expected = expected / np.linalg.norm(expected)
    assert np.allclose(theta_s, expected, atol=1e-6)
    assert np.allclose(theta_t, expected, atol=1e-6)


def test_overlays_do_not_interact(random_graph):
    g, X = random_graph(num_nodes=15, seed=4)
    params = ModelParams.init(5, 4, 2, np.random.default_rng(2))
    req1 = ColdStartRequest(key="c1", features=X[3] + 0.01, k_sim=2)
    req2 = ColdStartRequest(key="c2", features=X[8] - 0.01, k_sim=2)
    a_alone = attach_and_embed(g, X, params, req1)
    attach_and_embed(g, X, params, req2)
    a_again = attach_and_embed(g, X, params, req1)
    assert np.array_equal(a_alone[0], a_again[0])
    assert np.array_equal(a_alone[1], a_again[1])


def test_base_graph_and_warm_embeddings_untouched(random_graph):
    g, X = random_graph(num_nodes=15, seed=5)
    params = ModelParams.init(5, 4, 2, np.random.default_rng(3))
    before = embed_all(g, X, params)
    cp_before = g.cp_edges.copy()
    cv_before = g.cv_pairs.copy()
    for node in (0, 5, 9):
        req = ColdStartRequest(key="c", features=X[node] + 0.02, k_sim=3)
        attach_and_embed(g, X, params, req)
    after = embed_all(g, X, params)
    assert np.array_equal(before.theta_s, after.theta_s)
    assert np.array_equal(before.theta_t, after.theta_t)
    assert np.array_equal(cp_before, g.cp_edges)
    assert np.array_equal(cv_before, g.cv_pairs)


def test_attach_deterministic(random_graph):
    g, X = random_graph(num_nodes=12, seed=6)
    params = ModelParams.init(5, 4, 2, np.random.default_rng(4))
    req = ColdStartRequest(key="c", features=X[2] * 1.1, k_sim=3)
    a = attach_and_embed(g, X, params, req)
    b = attach_and_embed(g, X, params, req)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert np.array_equal(a[2], b[2])


def test_recommend_for_cold_contract(random_graph):
    g, X = random_graph(num_nodes=12, seed=8)
    params = ModelParams.init(5, 4, 2, np.random.default_rng(6))
    emb = embed_all(g, X, params)
    index = EmbeddingIndex.build(emb)
    req = ColdStartRequest(key="c", features=X[4] + 0.01, k_sim=2)
    theta_s, _, _ = attach_and_embed(g, X, params, req)
    top1 = recommend_for_cold(theta_s, index, 1)
    assert len(top1) == 1
    scores = emb.theta_t @ theta_s
    best = np.lexsort((np.arange(len(scores)), -scores))[0]
    assert top1[0][0] == best
    with pytest.warns(UserWarning, match="zero embedding"):
        assert recommend_for_cold(np.zeros(4), index, 5) == []
    with pytest.raises(ValueError, match="k must"):
        recommend_for_cold(theta_s, index, 0)


def graph_arrays(g):
    return [a.copy() for adj in (g.cp_out, g.cp_in, g.cv_out)
            for a in (adj.indptr, adj.indices)]


def assert_block_matches_rebuild(g, X, params, vecs, k_sim, eligible):
    """Every row of every block, at block sizes 1, 3 and all, equals the
    one-request rebuild oracle bit for bit, warm ids included, and no
    block touches the base graph."""
    before = graph_arrays(g)
    want = [rebuild_attach_and_embed(g, X, params,
                                     ColdStartRequest("c", v, k_sim), eligible)
            for v in vecs]
    for size in (1, 3, len(vecs)):
        for start in range(0, len(vecs), size):
            got = embed_cold(g, X, params, vecs[start:start + size], k_sim,
                             eligible)
            for i, row in enumerate(zip(*got), start):
                for a, b in zip(row, want[i]):
                    assert a.dtype == b.dtype and np.array_equal(a, b)
    for a, b in zip(graph_arrays(g), before):
        assert np.array_equal(a, b)


@st.composite
def cold_block_cases(draw):
    """A small graph, features with many cosine ties, and cold rows that
    copy or perturb warm rows, so requests share warm neighbours and their
    warm neighbours are often adjacent."""
    n = draw(st.integers(1, 12))
    d = draw(st.integers(1, 6))
    ids = st.integers(0, n - 1)
    cp = draw(st.lists(st.tuples(ids, ids), max_size=30))
    cv = draw(st.lists(st.tuples(ids, ids), max_size=20))
    ints = st.integers(-2, 2).map(float)
    X = draw(hnp.arrays(np.float64, (n, d), elements=ints))
    rows = draw(st.lists(st.tuples(ids, st.sampled_from([0.0, 0.5, -0.25])),
                         min_size=1, max_size=7))
    vecs = np.array([X[i] + eps for i, eps in rows]).reshape(-1, d)
    vecs[~vecs.any(axis=1)] = 1.0
    eligible = draw(st.none() | st.lists(ids, min_size=1, max_size=n)
                    .map(lambda e: np.array(e, dtype=np.int64)))
    layers = draw(st.integers(1, 3))
    width = draw(st.integers(1, 8))
    return (build_graph(cp, cv, n), X, vecs, draw(st.integers(1, n + 1)),
            eligible, layers, width, draw(st.integers(0, 2 ** 32 - 1)))


@given(cold_block_cases())
def test_cold_block_rows_match_rebuild_oracle(case):
    g, X, vecs, k_sim, eligible, layers, width, seed = case
    params = ModelParams.init(X.shape[1], width, layers,
                              np.random.default_rng(seed))
    assert_block_matches_rebuild(g, X, params, vecs, k_sim, eligible)


def test_cold_block_on_corpus_matches_rebuild_oracle(mini_corpus):
    """Realistic widths: cold rows near warm products, repeated rows
    (identical warm sets) and rows near co-view partners (adjacent warm
    neighbours), with and without an eligible subset."""
    _cfg, data, g = mini_corpus
    X = data.features
    rng = np.random.default_rng(12)
    params = ModelParams.init(X.shape[1], 16, 3, rng)
    pair = g.cv_pairs[0]
    nodes = [0, 17, 42, 42, 77, 101, int(pair[0]), int(pair[1])]
    vecs = X[nodes] + 0.1 * rng.normal(size=(len(nodes), X.shape[1]))
    vecs[3] = vecs[2]
    for eligible in (None, np.arange(0, g.num_nodes, 2)):
        assert_block_matches_rebuild(g, X, params, vecs, 5, eligible)


def test_cold_block_rejects_bad_input(random_graph):
    g, X = random_graph(num_nodes=10, seed=7)
    params = ModelParams.init(5, 4, 2, np.random.default_rng(0))
    good = X[:2] + 0.1
    for vecs, match in ((good * [[1], [0]], "zeros"),
                        (good[:0], "at least one row"),
                        (np.full((1, 5), np.inf), "finite"),
                        (good[:, :4], "dim mismatch")):
        with pytest.raises(ValueError, match=match):
            embed_cold(g, X, params, vecs)
    with pytest.raises(ValueError, match="feature rows"):
        embed_cold(g, X[:9], params, good)
    with pytest.raises(ValueError, match="k_sim"):
        embed_cold(g, X, params, good, k_sim=0)
    with pytest.raises(ValueError, match="no eligible"):
        embed_cold(g, X, params, good,
                   eligible=np.array([], dtype=np.int64))
    index = EmbeddingIndex.build(embed_all(g, X, params))
    assert list(coldstart.recommend_cold_blocks(g, X, params, index,
                                                good[:0], 5)) == []


def test_coldstart_task_is_one_forward_and_norm_pass_per_block(
        mini_corpus, monkeypatch):
    """The eval task embeds its cold products in blocks of
    `retrieval.block_rows(n, 8)` rows: one catalogue norm pass, one union,
    one forward pass, one warm-neighbour cut and one ranking score block
    each, and the same report whatever the block size. SCORE_BLOCK_BYTES
    sizes cold and cosine blocks; a cold block is ranked as one block."""
    _cfg, data, g = mini_corpus
    # an embedding width other than the feature width: no other norm
    # pass sees the catalogue's shape
    params = ModelParams.init(data.features.shape[1], 6, 2,
                              np.random.default_rng(9))
    calls = Counter()

    def counted(name, fn):
        def call(*args, **kwargs):
            # a norm pass, by `np.linalg.norm` or `np.einsum`, counts when
            # its first array has the catalogue's shape
            if name != "norm" or next(a for a in args if isinstance(
                    a, np.ndarray)).shape == data.features.shape:
                calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in ("embed_cold", "full_blocks", "forward"):
        monkeypatch.setattr(coldstart, name,
                            counted(name, getattr(coldstart, name)))
    monkeypatch.setattr(np.linalg, "norm", counted("norm", np.linalg.norm))
    monkeypatch.setattr(np, "einsum", counted("norm", np.einsum))
    top_k = retrieval.top_k_by_score

    def cut(scores, k, rows, ids, delta=0.0, rescore=None):
        # float64 cosines are the warm cut, float32 scores the ranking cut
        calls["warm" if scores.dtype == np.float64 else "rank"] += 1
        return top_k(scores, k, rows, ids, delta, rescore)

    monkeypatch.setattr(retrieval, "top_k_by_score", cut)
    whole = run_task("coldstart", g, data.features, params)
    assert dict(calls) == {"embed_cold": 1, "norm": 1, "full_blocks": 1,
                           "forward": 1, "warm": 1, "rank": 1}
    calls.clear()
    monkeypatch.setattr(retrieval, "SCORE_BLOCK_BYTES",
                        8 * g.num_nodes * 2)   # two cold rows a block
    blocks = -(-whole.counts["cold_queries"] // 2)
    assert blocks >= 3
    assert run_task("coldstart", g, data.features, params) == whole
    assert dict(calls) == {"embed_cold": blocks, "norm": blocks,
                           "full_blocks": blocks, "forward": blocks,
                           "warm": blocks, "rank": blocks}


def test_cold_blocks_draw_warm_and_ranked_ids_from_eligible(mini_corpus):
    """Given `eligible`, no warm neighbour and no ranked id lies outside
    it, at one block and at 2-row blocks."""
    _cfg, data, g = mini_corpus
    X = data.features
    rng = np.random.default_rng(13)
    params = ModelParams.init(X.shape[1], 6, 2, rng)
    index = EmbeddingIndex.build(embed_all(g, X, params), graph=g)
    eligible = np.arange(1, g.num_nodes, 3)
    vecs = X[[0, 2, 5, 8, 11]] + 0.1 * rng.normal(size=(5, X.shape[1]))
    for budget in (retrieval.SCORE_BLOCK_BYTES, 8 * g.num_nodes * 2):
        with mock.patch.object(retrieval, "SCORE_BLOCK_BYTES", budget):
            blocks = list(coldstart.recommend_cold_blocks(
                g, X, params, index, vecs, 20, 4, eligible))
        assert [start for start, _, _ in blocks] == list(
            range(0, len(vecs), len(blocks[0][2])))
        for _start, recs, warm in blocks:
            assert warm.shape[1] == 4 and np.isin(warm, eligible).all()
            for r in recs:
                assert len(r) == 20
                assert np.isin([i for i, _ in r], eligible).all()
