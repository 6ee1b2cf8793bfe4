import numpy as np
import pytest

from asymgraph import sampler
from asymgraph.graph import build_graph
from asymgraph.sampler import (SOURCE, TARGET, full_blocks, sample_blocks,
                               sample_negatives)
from reference import loop_sample_negatives, loop_sample_rows


def star_graph(out_degree):
    edges = [(0, i + 1) for i in range(out_degree)]
    return build_graph(edges, [], out_degree + 1)


def test_cap_binds_on_star():
    g = star_graph(30)
    blocks = sample_blocks(g, [0], [20], rng_seed=1)
    blk = blocks.levels[1][SOURCE]
    row = blk.cp_nbrs[blk.cp_ptr[0]:blk.cp_ptr[1]]
    assert len(row) == 20
    assert len(set(row.tolist())) == 20
    assert all(1 <= v <= 30 for v in row)


def test_cap_slack_takes_all():
    g = star_graph(3)
    blocks = sample_blocks(g, [0], [20], rng_seed=1)
    blk = blocks.levels[1][SOURCE]
    assert sorted(blk.cp_nbrs.tolist()) == [1, 2, 3]


def test_determinism():
    g = star_graph(30)
    a = sample_blocks(g, [0], [5], rng_seed=42)
    b = sample_blocks(g, [0], [5], rng_seed=42)
    assert np.array_equal(a.levels[1][SOURCE].cp_nbrs,
                          b.levels[1][SOURCE].cp_nbrs)
    c = sample_blocks(g, [0], [5], rng_seed=43)
    assert not np.array_equal(a.levels[1][SOURCE].cp_nbrs,
                              c.levels[1][SOURCE].cp_nbrs)


def test_channel_routing():
    # 0 -cp-> 1, 1 -cp-> 2, 0 -cv- 3
    g = build_graph([(0, 1), (1, 2)], [(0, 3)], 4)
    blocks = sample_blocks(g, [0], [5, 5], rng_seed=0)
    top_s = blocks.levels[2][SOURCE]
    top_t = blocks.levels[2][TARGET]
    # source channel of 0: cp out-neighbor 1, cv neighbor 3
    assert top_s.cp_nbrs.tolist() == [1]
    assert top_s.cv_nbrs.tolist() == [3]
    # target channel of 0: no cp in-neighbors, cv neighbor 3
    assert top_t.cp_nbrs.tolist() == []
    assert top_t.cv_nbrs.tolist() == [3]
    # layer-1 source frontier: cv-from-source {3} plus cp-from-target {}
    assert blocks.levels[1][SOURCE].nodes.tolist() == [3]
    # layer-1 target frontier: cp-from-source {1} plus cv-from-target {3}
    assert blocks.levels[1][TARGET].nodes.tolist() == [1, 3]
    # target values of 1 and 3 need cp in-neighbor {0} and cv partner {0}
    lvl1_t = blocks.levels[1][TARGET]
    assert lvl1_t.cp_nbrs.tolist() == [0]
    assert lvl1_t.cv_nbrs.tolist() == [0]
    # so node 0's inputs sit in both level-0 frontiers
    assert blocks.levels[0][SOURCE].nodes.tolist() == [0]
    assert blocks.levels[0][TARGET].nodes.tolist() == [0]


def test_no_sampled_edge_outside_graph(random_graph):
    g, _ = random_graph(num_nodes=25, num_cp=60, num_cv=30, seed=9)
    blocks = sample_blocks(g, np.arange(25), [4, 4], rng_seed=3)
    for level in (1, 2):
        for ch, cp_adj, cv_adj in ((SOURCE, g.cp_out, g.cv_out),
                                   (TARGET, g.cp_in, g.cv_in)):
            blk = blocks.levels[level][ch]
            for i, u in enumerate(blk.nodes):
                for v in blk.cp_nbrs[blk.cp_ptr[i]:blk.cp_ptr[i + 1]]:
                    assert cp_adj.has_edge(int(u), int(v))
                for v in blk.cv_nbrs[blk.cv_ptr[i]:blk.cv_ptr[i + 1]]:
                    assert cv_adj.has_edge(int(u), int(v))


def test_full_blocks_keep_everything(random_graph):
    g, _ = random_graph(num_nodes=15, seed=2)
    blocks = full_blocks(g, [4], 1)
    blk = blocks.levels[1][SOURCE]
    assert sorted(blk.cp_nbrs.tolist()) == sorted(g.cp_out.neighbors(4).tolist())


def test_isolated_seed_empty_frontiers():
    g = build_graph([(1, 2)], [], 4)
    blocks = sample_blocks(g, [0], [5], rng_seed=0)
    assert blocks.levels[1][SOURCE].cp_nbrs.size == 0
    assert blocks.levels[1][TARGET].cp_nbrs.size == 0


def _adjacencies(g):
    return (g.cp_out, g.cp_in, g.cv_out, g.cv_in)


def test_uncapped_rows_match_loop_oracle(random_graph):
    g, _ = random_graph(num_nodes=40, num_cp=150, num_cv=60, seed=11)
    nodes = np.random.default_rng(0).integers(0, 40, size=60)
    for adj in _adjacencies(g):
        max_deg = int(np.diff(adj.indptr).max())
        for cap in (None, max_deg):
            rng = np.random.default_rng(5)
            before = rng.bit_generator.state
            got = sampler._sample_rows(adj, nodes, cap, rng)
            want = loop_sample_rows(adj, nodes, cap, np.random.default_rng(5))
            for x, y in zip(got, want):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
            assert rng.bit_generator.state == before  # nothing drawn


def test_full_blocks_match_loop_oracle(random_graph, monkeypatch):
    g, _ = random_graph(num_nodes=40, num_cp=150, num_cv=60, seed=12)
    got = full_blocks(g, [0, 3, 17, 39], 3)
    monkeypatch.setattr(sampler, "_sample_rows", loop_sample_rows)
    want = full_blocks(g, [0, 3, 17, 39], 3)
    for lvl_got, lvl_want in zip(got.levels, want.levels):
        for ch in (SOURCE, TARGET):
            for name in ("nodes", "cp_ptr", "cp_nbrs", "cp_rows",
                         "cv_ptr", "cv_nbrs", "cv_rows"):
                x = getattr(lvl_got[ch], name)
                y = getattr(lvl_want[ch], name)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def test_capped_rows_are_sorted_distinct_subsets(random_graph):
    g, _ = random_graph(num_nodes=30, num_cp=300, num_cv=120, seed=13)
    nodes = np.arange(30)
    rng = np.random.default_rng(2)
    for adj in _adjacencies(g):
        for cap in (1, 3, 7):
            ptr, flat = sampler._sample_rows(adj, nodes, cap, rng)
            for i, u in enumerate(nodes):
                full = adj.neighbors(u)
                row = flat[ptr[i]:ptr[i + 1]]
                assert len(row) == min(len(full), cap)
                assert np.all(np.diff(row) > 0)
                assert np.isin(row, full).all()


def test_capped_star_row_uniform_chi_square():
    """Each of 30 leaves of an over-cap star row is kept with
    probability cap/30; the chi-square statistic over 20000 rows must sit
    below the 99.9% quantile (29 degrees of freedom)."""
    from scipy.stats import chi2

    g = star_graph(30)
    cap, repeats = 5, 20000
    ptr, flat = sampler._sample_rows(g.cp_out, np.zeros(repeats, dtype=np.int64),
                                     cap, np.random.default_rng(321))
    assert np.all(np.diff(ptr) == cap)
    counts = np.bincount(flat, minlength=31)[1:]
    expected = repeats * cap / 30
    stat = float(np.sum((counts - expected) ** 2 / expected))
    assert stat < chi2.ppf(0.999, df=29)


def test_negatives_match_loop_oracle_where_forced(random_graph):
    """Where a row's legal set is exactly n_k ids both samplers must
    return that set; elsewhere both draw only from it."""
    edges = [(0, 1), (0, 2), (1, 0), (1, 3), (2, 3), (2, 4)]
    g = build_graph(edges, [], 5)
    got = sample_negatives(g, edges, 2, rng_seed=3)
    want = loop_sample_negatives(g, edges, 2, rng_seed=3)
    assert [sorted(r) for r in got.tolist()] == [sorted(r) for r in want.tolist()]

    g, _ = random_graph(num_nodes=12, num_cp=50, seed=14)
    edges = np.repeat(g.cp_edges, 40, axis=0)
    got = sample_negatives(g, edges, 3, rng_seed=4)
    want = loop_sample_negatives(g, edges, 3, rng_seed=4)
    for u in np.unique(edges[:, 0]):
        rows = edges[:, 0] == u
        assert set(got[rows].ravel()) == set(want[rows].ravel())


def test_negatives_forced_choice():
    g = build_graph([(0, 1)], [], 3)
    negs = sample_negatives(g, [(0, 1)], 1, rng_seed=0)
    assert negs.tolist() == [[2]]


def test_negatives_exclusions(random_graph):
    g, _ = random_graph(num_nodes=30, num_cp=80, seed=4)
    negs = sample_negatives(g, g.cp_edges, 3, rng_seed=7)
    for (u, _v), row in zip(g.cp_edges, negs):
        for z in row:
            assert z != u
            assert not g.cp_out.has_edge(int(u), int(z))
        assert len(set(row.tolist())) == len(row)


def test_negatives_deterministic(random_graph):
    g, _ = random_graph(num_nodes=30, num_cp=80, seed=4)
    a = sample_negatives(g, g.cp_edges, 3, rng_seed=7)
    b = sample_negatives(g, g.cp_edges, 3, rng_seed=7)
    assert np.array_equal(a, b)


def test_negatives_degenerate_warns():
    g = build_graph([(0, 1), (0, 2)], [], 3)
    with pytest.warns(UserWarning, match="with replacement"):
        negs = sample_negatives(g, [(0, 1)], 2, rng_seed=0)
    assert negs.shape == (1, 2)
    assert all(z != 0 for z in negs[0])


def test_negatives_uniformity_chi_square():
    """Chi-square goodness of fit of legal draws against exact uniform.

    10^5 draws over the 98 legal ids of a 100-node graph; the statistic
    must sit below the 99.9% chi-square quantile (97 degrees of freedom)
    and no bin may stray past 4 sigma.
    """
    from scipy.stats import chi2

    edges = [(0, 1)]
    g = build_graph(edges, [], 100)
    draws_per_call = 5
    repeats = 20000
    negs = sample_negatives(g, edges * repeats, draws_per_call, rng_seed=123)
    counts = np.bincount(negs.ravel(), minlength=100)
    assert counts[0] == 0 and counts[1] == 0
    legal = counts[2:]
    total = draws_per_call * repeats
    expected = total / 98
    stat = float(np.sum((legal - expected) ** 2 / expected))
    assert stat < chi2.ppf(0.999, df=97)
    sigma = np.sqrt(total * (1 / 98) * (1 - 1 / 98))
    assert np.all(np.abs(legal - expected) <= 4 * sigma)
