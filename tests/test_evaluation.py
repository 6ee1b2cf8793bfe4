import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from asymgraph.evaluation import (auc_direction, auc_existence, hitrate_mrr,
                                  make_edge_split, make_node_split,
                                  make_selection_bias_split, rank_queries,
                                  run_task, sample_non_edges, train_graph)
from asymgraph.graph import build_graph, has_cp_edges
from asymgraph.model import DualEmbeddings
from asymgraph.util import STREAM_EVAL, derive_rng
from reference import (brute_auc, brute_hitrate_mrr, loop_sample_non_edges,
                       loop_selection_bias_split)


class TestSplits:
    def test_edge_split_exact_counts(self, random_graph):
        g, _ = random_graph(num_nodes=40, num_cp=150, seed=2)
        # craft a graph with exactly 100 cp edges for round numbers
        rng = np.random.default_rng(0)
        edges = set()
        while len(edges) < 100:
            u, v = rng.integers(0, 40, size=2)
            if u != v:
                edges.add((int(u), int(v)))
        g = build_graph(sorted(edges), [], 40)
        split = make_edge_split(g, (0.75, 0.05, 0.20), seed=3)
        assert len(split.train_edges) == 75
        assert len(split.val_edges) == 5
        assert len(split.test_edges) == 20

    def test_edge_split_deterministic_and_disjoint(self, random_graph):
        g, _ = random_graph(num_nodes=30, num_cp=90, seed=4)
        a = make_edge_split(g, seed=7)
        b = make_edge_split(g, seed=7)
        assert np.array_equal(a.train_edges, b.train_edges)
        assert np.array_equal(a.test_edges, b.test_edges)
        train = {tuple(e) for e in a.train_edges}
        val = {tuple(e) for e in a.val_edges}
        test = {tuple(e) for e in a.test_edges}
        assert not (train & test) and not (train & val) and not (val & test)
        assert train | val | test == {tuple(e) for e in g.cp_edges}

    def test_bad_ratios_rejected(self, random_graph):
        g, _ = random_graph(seed=5)
        with pytest.raises(ValueError, match="sum to 1"):
            make_edge_split(g, (0.5, 0.2, 0.2), seed=0)

    def test_selection_bias_synthesizes_transitive(self):
        g = build_graph([(0, 1)], [(1, 2)], 3)
        split = make_selection_bias_split(g, (1.0, 0.0, 0.0), seed=0)
        assert split.synth_test_edges.tolist() == [[0, 2]]
        assert [tuple(e) for e in split.test_edges] == [(0, 2)]

    def test_selection_bias_nothing_without_coview(self):
        g = build_graph([(0, 1)], [], 3)
        split = make_selection_bias_split(g, (1.0, 0.0, 0.0), seed=0)
        assert len(split.synth_test_edges) == 0

    def test_selection_bias_skips_existing_cp(self):
        g = build_graph([(0, 1), (0, 2)], [(1, 2)], 3)
        split = make_selection_bias_split(g, (1.0, 0.0, 0.0), seed=0)
        assert len(split.synth_test_edges) == 0

    def test_selection_bias_cap(self, corpus):
        _data, g = corpus
        split = make_selection_bias_split(g, seed=0)
        base_test = len(split.test_edges) - len(split.synth_test_edges)
        assert len(split.synth_test_edges) <= base_test

    # a cp path under a complete co-view graph: far more transitive pairs
    # than held-out edges, so the cap's rng.choice runs
    @example(12, [(i, i + 1) for i in range(11)],
             [(i, j) for i in range(12) for j in range(i + 1, 12)],
             (0.75, 0.05, 0.20), 0)
    @given(st.integers(2, 15),
           st.lists(st.tuples(st.integers(0, 14), st.integers(0, 14)),
                    max_size=40),
           st.lists(st.tuples(st.integers(0, 14), st.integers(0, 14)),
                    max_size=40),
           st.sampled_from([(0.75, 0.05, 0.20), (1.0, 0.0, 0.0),
                            (0.5, 0.0, 0.5)]),
           st.integers(0, 3))
    def test_selection_bias_matches_loop_oracle(self, n, cp, cv, ratios, seed):
        cp = [(u % n, v % n) for u, v in cp]
        cv = [(u % n, v % n) for u, v in cv]
        g = build_graph(cp, cv, n)
        split = make_selection_bias_split(g, ratios, seed)
        test, synth = loop_selection_bias_split(g, ratios, seed)
        assert split.synth_test_edges.dtype == synth.dtype
        assert np.array_equal(split.synth_test_edges, synth)
        assert np.array_equal(split.test_edges, test)

    def test_node_split_counts_and_disjoint(self, random_graph):
        g, _ = random_graph(num_nodes=40, seed=6)
        split = make_node_split(g, (0.75, 0.05, 0.20), seed=1)
        assert len(split.train_nodes) == 30
        assert len(split.val_nodes) == 2
        assert len(split.test_nodes) == 8
        all_nodes = np.concatenate([split.train_nodes, split.val_nodes,
                                    split.test_nodes])
        assert sorted(all_nodes.tolist()) == list(range(40))

    def test_induced_train_graph_has_no_test_endpoints(self, random_graph):
        g, _ = random_graph(num_nodes=25, num_cp=80, num_cv=30, seed=7)
        split = make_node_split(g, seed=2)
        gt = train_graph(g, split)
        test_set = set(split.test_nodes.tolist()) | set(split.val_nodes.tolist())
        for u, v in gt.cp_edges:
            assert u not in test_set and v not in test_set
        for u, v in gt.cv_pairs:
            assert u not in test_set and v not in test_set

    def test_train_graph_keeps_all_coview_for_edge_split(self, random_graph):
        g, _ = random_graph(num_nodes=25, num_cp=60, num_cv=30, seed=8)
        split = make_edge_split(g, seed=3)
        gt = train_graph(g, split)
        assert np.array_equal(gt.cv_pairs, g.cv_pairs)
        assert np.array_equal(gt.cp_edges, split.train_edges)
        g_cp_only = train_graph(g, split, use_coview=False)
        assert len(g_cp_only.cv_pairs) == 0


class TestMetrics:
    def test_hitrate_mrr_rank_three(self):
        rankings = {0: [5, 6, 1, 7, 8]}
        report = hitrate_mrr(rankings, [(0, 1)], (5,))
        assert report.hitrate[5] == 1.0
        assert report.mrr[5] == pytest.approx(1 / 3)

    def test_hitrate_mrr_beyond_k(self):
        rankings = {0: [5, 6, 2, 7, 8, 9, 1]}
        report = hitrate_mrr(rankings, [(0, 1)], (5,))
        assert report.hitrate[5] == 0.0
        assert report.mrr[5] == 0.0

    def test_hitrate_mrr_two_edges(self):
        rankings = {0: [1] + list(range(10, 19)), 2: list(range(20, 30))}
        report = hitrate_mrr(rankings, [(0, 1), (2, 3)], (10,))
        assert report.hitrate[10] == 0.5
        assert report.mrr[10] == 0.5

    def test_metrics_match_brute_force_micro_instances(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n_items = int(rng.integers(5, 30))
            n_queries = int(rng.integers(1, 6))
            rankings = {q: rng.permutation(n_items)[: rng.integers(1, n_items)]
                            .tolist()
                        for q in range(n_queries)}
            edges = [(int(rng.integers(0, n_queries)),
                      int(rng.integers(0, n_items)))
                     for _ in range(int(rng.integers(1, 12)))]
            k = int(rng.integers(1, 15))
            report = hitrate_mrr(rankings, edges, (k,))
            hr, mrr = brute_hitrate_mrr(rankings, edges, k)
            assert report.hitrate[k] == hr
            assert report.mrr[k] == mrr

    @given(rankings=st.dictionaries(
               st.integers(0, 6),
               st.lists(st.integers(0, 12), max_size=10),
               max_size=5),
           edges=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 14)),
                          max_size=25),
           ks=st.lists(st.integers(1, 12), min_size=1, max_size=3))
    # v above every ranked id must not alias another query's entry
    @example(rankings={1: [0]}, edges=[(0, 1)], ks=[1])
    # long enough that only a stable sort keeps repeats in ranking order
    @example(rankings={0: [1, 2] * 20}, edges=[(0, 2)], ks=[5])
    def test_hitrate_mrr_matches_brute_force_property(self, rankings, edges,
                                                      ks):
        """Repeated queries, ids missing from a ranking or repeated in
        one, queries with no ranking (ids 7-8) and empty rankings all
        score exactly as the per-edge list.index oracle does."""
        report = hitrate_mrr(rankings, edges, ks)
        for k in ks:
            hr, mrr = brute_hitrate_mrr(rankings, edges, k)
            assert report.hitrate[k] == hr
            assert report.mrr[k] == mrr

    def test_metric_monotone_in_k(self):
        rng = np.random.default_rng(13)
        rankings = {q: rng.permutation(50).tolist() for q in range(10)}
        edges = [(q, int(rng.integers(0, 50))) for q in range(10)]
        report = hitrate_mrr(rankings, edges, (5, 10, 20))
        assert report.hitrate[5] <= report.hitrate[10] <= report.hitrate[20]
        assert report.mrr[5] <= report.mrr[10] <= report.mrr[20]
        for k in (5, 10, 20):
            assert report.mrr[k] <= report.hitrate[k]

    def test_auc_trivia(self):
        assert auc_existence([0.9, 0.8], [0.1, 0.2]) == 1.0
        assert auc_existence([0.5], [0.5]) == 0.5
        assert auc_existence([0.2], [0.8]) == 0.0
        with pytest.raises(ValueError):
            auc_existence([], [0.1])

    def test_auc_identical_multisets_half(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=37)
        assert auc_existence(x, x) == pytest.approx(0.5, abs=1e-12)

    def test_auc_matches_brute_force(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            pos = np.round(rng.normal(size=rng.integers(1, 20)), 1)
            neg = np.round(rng.normal(size=rng.integers(1, 20)), 1)
            assert auc_existence(pos, neg) == pytest.approx(
                brute_auc(pos, neg), abs=1e-12)

    def test_auc_direction_perfect_and_tied(self):
        g = build_graph([(0, 1), (2, 3)], [], 4)
        # perfectly asymmetric embeddings
        emb = DualEmbeddings(
            nodes=np.arange(4),
            theta_s=np.array([[1, 0], [0, 0], [1, 0], [0, 0]], dtype=float),
            theta_t=np.array([[0, 0], [1, 0], [0, 0], [1, 0]], dtype=float))
        assert auc_direction(g, g.cp_edges, emb) == 1.0
        # symmetric embeddings tie every pair
        same = np.ones((4, 2)) / np.sqrt(2)
        emb_sym = DualEmbeddings(nodes=np.arange(4), theta_s=same.copy(),
                                 theta_t=same.copy())
        assert auc_direction(g, g.cp_edges, emb_sym) == 0.5

    def test_auc_direction_single_edge_asymmetry(self, single_edge_graph):
        from asymgraph.model import ModelParams, forward
        from asymgraph.sampler import full_blocks
        g, X = single_edge_graph
        emb, _ = forward(full_blocks(g, [0, 1], 1), X, ModelParams([np.eye(2)]))
        assert auc_direction(g, g.cp_edges, emb) == 1.0

    @given(n=st.integers(2, 15), seed=st.integers(0, 2**16),
           count=st.integers(0, 60), density=st.floats(0.0, 0.9))
    def test_sample_non_edges_matches_loop(self, n, seed, count, density):
        """Block draws read the eval stream in the loop's (u, v) order, so
        the first `count` legal pairs are the loop's, pair for pair."""
        rng = np.random.default_rng(seed)
        dense = rng.random((n, n)) < density
        dense[0, 1] = False  # at least one legal pair
        g = build_graph(np.argwhere(dense), [], n)
        got = sample_non_edges(g, count, seed=seed)
        assert got.shape == (count, 2) and got.dtype == np.int64
        assert np.all(got[:, 0] != got[:, 1])
        assert not has_cp_edges(g, got[:, 0], got[:, 1]).any()
        want = loop_sample_non_edges(g, count, seed=seed)
        assert np.array_equal(got, want.reshape(-1, 2))

    def test_sample_non_edges_valid(self, random_graph):
        g, _ = random_graph(num_nodes=20, num_cp=50, seed=9)
        pairs = sample_non_edges(g, 40, seed=1)
        assert len(pairs) == 40
        for u, v in pairs:
            assert u != v
            assert v not in g.cp_out.neighbors(u)
        again = sample_non_edges(g, 40, seed=1)
        assert np.array_equal(pairs, again)

    def test_sample_non_edges_gives_up_after_same_draws_as_loop(self):
        """One legal pair among 1600: the first one falls either side of
        the 1000-draw limit depending on the seed, and both samplers agree
        on which side, seed for seed."""
        n = 40
        full = [(u, v) for u in range(n) for v in range(n)
                if u != v and (u, v) != (3, 7)]
        g = build_graph(full, [], n)
        outcomes = set()
        for seed in range(12):
            try:
                want = loop_sample_non_edges(g, 1, seed=seed)
            except ValueError:
                with pytest.raises(ValueError, match="too dense"):
                    sample_non_edges(g, 1, seed=seed)
                outcomes.add("raised")
                continue
            assert np.array_equal(sample_non_edges(g, 1, seed=seed), want)
            outcomes.add("found")
        assert outcomes == {"raised", "found"}

    def test_sample_non_edges_does_not_count_draws_past_the_limit(self):
        """The only legal pairs are draws 0, 3000 and 3001 of the stream.
        For count=3 the loop gives up after draw 2999 (0-based), so a last
        block that reached past the limit would wrongly succeed."""
        n, seed = 200, 1
        draws = derive_rng(seed, STREAM_EVAL).integers(0, n, size=(3002, 2))
        keys = draws[:, 0] * n + draws[:, 1]
        legal = [0, 3000, 3001]
        assert all(draws[i, 0] != draws[i, 1] and (keys == keys[i]).sum() == 1
                   for i in legal)
        banned = np.ones((n, n), dtype=bool)
        np.fill_diagonal(banned, False)
        banned[draws[legal, 0], draws[legal, 1]] = False
        g = build_graph(np.argwhere(banned), [], n)
        for sampler in (sample_non_edges, loop_sample_non_edges):
            with pytest.raises(ValueError, match="too dense"):
                sampler(g, 3, seed=seed)

    @pytest.mark.parametrize("n", [1, 3])
    def test_sample_non_edges_too_dense_raises(self, n):
        # every ordered pair of distinct nodes is a co-purchase edge
        full = [(u, v) for u in range(n) for v in range(n) if u != v]
        g = build_graph(full, [], n)
        for sampler in (sample_non_edges, loop_sample_non_edges):
            with pytest.raises(ValueError, match="too dense"):
                sampler(g, 5, seed=0)


@pytest.mark.filterwarnings("ignore::UserWarning")
class TestRunTask:
    @pytest.fixture(scope="class")
    def trained_mini(self, mini_corpus):
        from asymgraph.trainer import TrainConfig, train
        cfg, data, g = mini_corpus
        split = make_edge_split(g, seed=0)
        g_train = train_graph(g, split)
        tcfg = TrainConfig(lr=1e-3, batch_size=256, max_epochs=3,
                           num_layers=2, embed_dim=16, fanouts=(10, 10),
                           num_negatives=3)
        result = train(g_train, data.features, tcfg, split=split)
        return data, g, result.params

    def test_node_rec_report(self, trained_mini):
        data, g, params = trained_mini
        report = run_task("node-rec", g, data.features, params, split_seed=0)
        for k in (5, 10, 20):
            assert 0.0 <= report.mrr[k] <= report.hitrate[k] <= 1.0
        assert report.counts["test_edges"] > 0

    def test_lp_tasks_report_auc(self, trained_mini):
        data, g, params = trained_mini
        exist = run_task("lp-exist", g, data.features, params, split_seed=0)
        assert 0.0 <= exist.auc["existence"] <= 1.0
        direction = run_task("lp-dir", g, data.features, params, split_seed=0)
        assert 0.0 <= direction.auc["direction"] <= 1.0

    def test_selection_bias_reports_synth_subset(self, trained_mini):
        data, g, params = trained_mini
        report = run_task("selection-bias", g, data.features, params,
                          split_seed=0, ks=(10,))
        assert "synth_test_edges" in report.counts
        assert "10_synth" in report.hitrate

    def test_coldstart_task_runs(self, trained_mini):
        data, g, params = trained_mini
        report = run_task("coldstart", g, data.features, params,
                          split_seed=0, ks=(10,))
        assert report.counts["cold_queries"] > 0
        assert 0.0 <= report.hitrate[10] <= 1.0

    def test_unknown_task_rejected(self, trained_mini):
        data, g, params = trained_mini
        with pytest.raises(ValueError, match="unknown task"):
            run_task("teleport", g, data.features, params)

    def test_rank_queries_excludes_train_neighbors(self, trained_mini):
        from asymgraph.model import embed_all
        from asymgraph.retrieval import EmbeddingIndex
        data, g, params = trained_mini
        split = make_edge_split(g, seed=0)
        g_train = train_graph(g, split)
        emb = embed_all(g_train, data.features, params)
        index = EmbeddingIndex.build(emb, graph=g_train)
        queries = np.unique(split.test_edges[:, 0])[:20]
        rankings = rank_queries(index, queries, k=10)
        for q in queries:
            q = int(q)
            banned = set(g_train.cp_out.neighbors(q).tolist()) | {q}
            assert not (set(rankings.get(q, [])) & banned)
