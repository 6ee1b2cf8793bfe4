import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from asymgraph.errors import DataFormatError
from asymgraph.graph import (KeyMap, _sorted_distinct, attach_node,
                             build_graph, dump_edge_file, graph_stats,
                             load_edge_file, load_feature_file,
                             one_way_mask, dump_feature_file,
                             transitive_pairs)
from reference import (loop_one_way_mask, loop_transitive_pairs,
                       sort_build_graph)


def graph_arrays(g):
    out = {"cp_edges": g.cp_edges, "cv_pairs": g.cv_pairs}
    for name in ("cp_out", "cp_in", "cv_out", "cv_in"):
        adj = getattr(g, name)
        out[name + "_indptr"], out[name + "_indices"] = adj.indptr, adj.indices
    return out


def assert_same_arrays(got, want):
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert got[name].shape == want[name].shape, name
        assert np.array_equal(got[name], want[name]), name


@st.composite
def pair_lists(draw, max_nodes=12):
    """(num_nodes, cp pairs, cv pairs) with repeats, reversed pairs and
    self-pairs among them."""
    n = draw(st.integers(0, max_nodes))
    ids = st.integers(0, max(n - 1, 0))
    pairs = st.lists(st.tuples(ids, ids), max_size=40 if n else 0)
    return n, draw(pairs), draw(pairs)


def test_single_cp_edge():
    g = build_graph([(0, 1)], [], 2)
    assert list(g.cp_out.neighbors(0)) == [1]
    assert list(g.cp_in.neighbors(1)) == [0]
    assert g.num_cv_edges == 0


def test_cv_symmetrized():
    g = build_graph([], [(0, 1)], 2)
    assert list(g.cv_out.neighbors(0)) == [1]
    assert list(g.cv_out.neighbors(1)) == [0]
    assert list(g.cv_in.neighbors(0)) == [1]


def test_dedup_and_self_loop():
    g = build_graph([(0, 1), (0, 1), (0, 0)], [], 2)
    assert g.num_cp_edges == 1
    assert list(g.cp_out.neighbors(0)) == [1]


def test_one_way_excludes_reciprocal():
    g = build_graph([(0, 1), (1, 0), (0, 2)], [], 3)
    assert g.cp_edges[one_way_mask(g, g.cp_edges)].tolist() == [[0, 2]]


def test_one_way_empty():
    g = build_graph([], [], 3)
    assert len(g.cp_edges[one_way_mask(g, g.cp_edges)]) == 0


def test_one_way_cycle():
    g = build_graph([(0, 1), (1, 2), (2, 0)], [], 3)
    assert g.cp_edges[one_way_mask(g, g.cp_edges)].tolist() == \
        [[0, 1], [1, 2], [2, 0]]


def test_one_way_mask_matches_loop_oracle(random_graph):
    g, _ = random_graph(num_nodes=12, num_cp=80, num_cv=0, seed=15)
    # graph edges plus arbitrary pairs, some absent from the graph
    pairs = np.random.default_rng(1).integers(0, 12, size=(60, 2))
    for edges in (g.cp_edges, pairs, pairs[:0]):
        got = one_way_mask(g, edges)
        assert got.dtype == bool
        assert np.array_equal(got, loop_one_way_mask(g, edges))
    empty = build_graph([], [], 4)
    assert one_way_mask(empty, pairs % 4).all()


@given(pair_lists())
def test_build_graph_matches_sort_oracle(case):
    n, cp, cv = case
    assert_same_arrays(graph_arrays(build_graph(cp, cv, n)),
                       sort_build_graph(cp, cv, n))


@st.composite
def transitive_cases(draw):
    """`pair_lists` plus the co-purchase pairs to walk from: all of them
    (None) or a subset, repeats and self-pairs included."""
    n, cp, cv = draw(pair_lists())
    keep = draw(st.none() | st.lists(st.booleans(), min_size=len(cp),
                                     max_size=len(cp)))
    return n, cp, cv, None if keep is None else [
        p for p, k in zip(cp, keep) if k]


@given(transitive_cases())
@example((3, [(0, 1)], [], None))                        # no co-view
@example((3, [], [(0, 1)], None))                        # no co-purchase
@example((4, [(0, 1), (1, 0), (1, 2)], [(0, 3), (1, 3), (0, 2)], None))
@example((4, [(0, 1), (0, 1), (2, 2), (1, 2)], [(1, 2), (2, 2), (2, 3)],
          [(0, 1), (2, 2)]))                             # repeats, self, subset
def test_transitive_pairs_matches_loop_oracle(case):
    n, cp, cv, edges = case
    got = transitive_pairs(build_graph(cp, cv, n),
                           cp if edges is None else edges)
    want = loop_transitive_pairs(cp, cv, edges)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


@given(st.integers(1, 3_000_000_000),
       st.lists(st.integers(0, 40), max_size=30),
       st.lists(st.integers(0, 40), max_size=30))
@example(1, [], [])                               # empty
@example(5, [3, 3, 0, 3], [0, 0, 24])             # repeats
def test_sorted_distinct_matches_np_unique(n, low, high):
    """Keys `u * n + v` as build_graph makes them, from both ends of
    [0, n * n); n * n reaches 9e18, near the int64 limit."""
    top = n * n - 1
    keys = np.asarray([k for k in low + [top - o for o in high]
                       if 0 <= k <= top], dtype=np.int64)
    got, want = _sorted_distinct(keys), np.unique(keys)
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert np.array_equal(got, want)


def test_cv_in_is_cv_out():
    g = build_graph([(0, 1)], [(2, 0), (1, 2)], 3)
    assert g.cv_in is g.cv_out


@st.composite
def attach_cases(draw):
    n, cp, cv = draw(pair_lists())
    subsets = st.lists(st.integers(0, n - 1), unique=True, max_size=n) \
        if n else st.just([])
    return n, cp, cv, draw(subsets)


@given(attach_cases())
@example((0, [], [], []))                           # empty base graph
@example((6, [(0, 1)], [(1, 2)], [5, 3, 4]))        # warm rows all empty
@example((6, [(0, 1)], [(1, 2)], []))
@example((4, [(0, 1), (2, 3)], [(0, 3)], [3, 0]))
def test_attach_node_equals_rebuild(case):
    n, cp, cv, cv_nbrs = case
    g = build_graph(cp, cv, n)
    overlay = attach_node(g, cv_nbrs=cv_nbrs)
    assert overlay.num_nodes == n + 1
    all_cp = g.cp_edges
    all_cv = np.concatenate([g.cv_pairs, [(n, w) for w in cv_nbrs]
                             or np.empty((0, 2), dtype=np.int64)])
    got = graph_arrays(overlay)
    assert_same_arrays(got, graph_arrays(build_graph(all_cp, all_cv, n + 1)))
    assert_same_arrays(got, sort_build_graph(all_cp, all_cv, n + 1))


def test_attach_node_leaves_base_untouched_and_shares_the_rest(random_graph):
    g, _ = random_graph(num_nodes=15, seed=9)
    before = {k: v.copy() for k, v in graph_arrays(g).items()}
    overlay = attach_node(g, cv_nbrs=[3, 7])
    assert_same_arrays(graph_arrays(g), before)
    # co-purchase gains nothing: its lists are shared, read-only
    for base, new in ((g.cp_out.indices, overlay.cp_out.indices),
                      (g.cp_in.indices, overlay.cp_in.indices)):
        assert np.shares_memory(base, new) and not new.flags.writeable
    assert g.cp_out.indices.flags.writeable
    assert not np.shares_memory(g.cv_out.indices, overlay.cv_out.indices)
    with pytest.raises(DataFormatError, match="outside"):
        attach_node(g, cv_nbrs=[15])
    with pytest.raises(DataFormatError, match="outside"):
        attach_node(g, cv_nbrs=[-1])


def test_adjacency_reciprocity():
    rng = np.random.default_rng(11)
    cp = rng.integers(0, 15, size=(40, 2))
    cv = rng.integers(0, 15, size=(20, 2))
    g = build_graph(cp[cp[:, 0] != cp[:, 1]], cv[cv[:, 0] != cv[:, 1]], 15)
    for u in range(15):
        for v in g.cp_out.neighbors(u):
            assert u in g.cp_in.neighbors(v)
        for v in g.cv_out.neighbors(u):
            assert u in g.cv_in.neighbors(v)
            assert u in g.cv_out.neighbors(v)  # symmetric storage


def test_one_way_union_reciprocal_is_cp():
    rng = np.random.default_rng(5)
    cp = rng.integers(0, 12, size=(50, 2))
    g = build_graph(cp[cp[:, 0] != cp[:, 1]], [], 12)
    one_way = {tuple(e) for e in g.cp_edges[one_way_mask(g, g.cp_edges)]}
    reciprocal = {tuple(e) for e in g.cp_edges} - one_way
    for u, v in reciprocal:
        assert (v, u) in reciprocal
    assert one_way | reciprocal == {tuple(e) for e in g.cp_edges}


def test_rebuild_from_dump_identical(tmp_path, mini_corpus):
    _cfg, data, g = mini_corpus
    path = tmp_path / "dump.tsv"
    dump_edge_file(g, data.key_map, path)
    cp, cv, _ = load_edge_file(path, key_map=data.key_map)
    g2 = build_graph(cp, cv, g.num_nodes)
    assert np.array_equal(g.cp_edges, g2.cp_edges)
    assert np.array_equal(g.cv_pairs, g2.cv_pairs)
    assert np.array_equal(g.cp_out.indptr, g2.cp_out.indptr)
    assert np.array_equal(g.cp_out.indices, g2.cp_out.indices)
    assert np.array_equal(g.cv_out.indices, g2.cv_out.indices)


def test_edge_file_unknown_key_lists_lines(tmp_path):
    km = KeyMap(["a", "b"])
    path = tmp_path / "edges.tsv"
    path.write_text("a\tb\tcp\nmystery\tb\tcp\n# comment\na\tghost\tcv\n")
    with pytest.raises(DataFormatError) as err:
        load_edge_file(path, key_map=km)
    assert "2" in str(err.value) and "4" in str(err.value)


def test_edge_file_malformed_line(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text("a\tb\tcp\na\tb\n")
    with pytest.raises(DataFormatError) as err:
        load_edge_file(path)
    assert "2" in str(err.value)


def test_edge_file_grows_key_map(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text("x\ty\tcp\ny\tz\tcv\n")
    cp, cv, km = load_edge_file(path)
    assert len(km) == 3
    assert cp == [(0, 1)] and cv == [(1, 2)]


def test_feature_file_roundtrip(tmp_path):
    km = KeyMap(["p0", "p1", "p2"])
    X = np.array([[0.5, -1.25], [3.0, 0.0], [1e-3, 2.0]])
    path = tmp_path / "features.tsv"
    dump_feature_file(X, km, path)
    X2, km2 = load_feature_file(path)
    assert np.array_equal(X, X2)
    assert km2.keys() == km.keys()


def test_feature_file_bad_counts(tmp_path):
    path = tmp_path / "features.tsv"
    path.write_text("2\t2\np0\t1.0,2.0\n")
    with pytest.raises(DataFormatError):
        load_feature_file(path)
    path.write_text("1\t2\np0\t1.0\n")
    with pytest.raises(DataFormatError):
        load_feature_file(path)
    path.write_text("1\t2\np0\t1.0,oops\n")
    with pytest.raises(DataFormatError):
        load_feature_file(path)



def test_feature_file_extra_row_names_line(tmp_path):
    path = tmp_path / "features.tsv"
    path.write_text("1\t2\np0\t1.0,2.0\np1\t3.0,4.0\n")
    with pytest.raises(DataFormatError, match="on line 3$"):
        load_feature_file(path)

def test_stats_counts():
    g = build_graph([(0, 1), (1, 0), (0, 2)], [(1, 2)], 3)
    stats = graph_stats(g)
    assert stats.num_cp_edges == 3
    assert stats.num_cv_edges == 2
    assert stats.num_cp_pairs == 2
    assert stats.num_one_way_pairs == 1
    assert stats.one_way_pair_share == 0.5
    assert stats.avg_degree == pytest.approx(5 / 3)
