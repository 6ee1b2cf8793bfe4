import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from asymgraph.coldstart import (ColdStartRequest, attach_and_embed,
                                 find_warm_neighbors, recommend_for_cold)
from asymgraph.graph import build_graph
from asymgraph.model import ModelParams, embed_all
from asymgraph.retrieval import EmbeddingIndex
from reference import lexsort_warm_neighbors, rebuild_attach_and_embed


def test_identical_feature_is_top_warm_neighbor():
    rng = np.random.default_rng(0)
    features = rng.normal(size=(10, 4))
    warm = find_warm_neighbors(features, features[6].copy(), 3)
    assert warm[0] == 6


def test_eligible_mask_respected():
    rng = np.random.default_rng(1)
    features = rng.normal(size=(10, 4))
    warm = find_warm_neighbors(features, features[6].copy(), 3,
                               eligible=np.array([0, 1, 2]))
    assert set(warm.tolist()) <= {0, 1, 2}


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
    got = find_warm_neighbors(features, vec, k_sim, eligible=eligible)
    want = lexsort_warm_neighbors(features, vec, k_sim, eligible)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_find_warm_neighbors_ties_by_id():
    features = np.array([[1.0, 0.0]] * 3 + [[2.0, 0.0]] * 3 + [[0.0, 1.0]])
    vec = np.array([1.0, 0.0])
    assert find_warm_neighbors(features, vec, 4).tolist() == [0, 1, 2, 3]
    assert find_warm_neighbors(features, vec, 2,
                               eligible=np.array([6, 5, 1])).tolist() == [1, 5]
    assert find_warm_neighbors(features, vec, 3,
                               eligible=np.array([], dtype=np.int64)).size == 0


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
    with pytest.raises(ValueError, match="zeros"):
        ColdStartRequest(key="c", features=np.zeros(4))
    with pytest.raises(ValueError, match="finite"):
        ColdStartRequest(key="c", features=np.array([1.0, np.nan]))
    with pytest.raises(ValueError):
        ColdStartRequest(key="c", features=np.ones(4), k_sim=0)


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
