import os
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from asymgraph import util
from asymgraph.errors import DataFormatError, NumericalError
from asymgraph.graph import build_graph
from asymgraph.loss import LossBatch, asymmetric_loss, loss_grad
from asymgraph.model import (DualEmbeddings, ModelParams, backward, embed_all,
                             dump_embeddings, forward, load_checkpoint,
                             load_embeddings, save_checkpoint)
from asymgraph.sampler import full_blocks, sample_blocks, sample_negatives
from asymgraph.graph import one_way_mask
from asymgraph.graph import KeyMap
from asymgraph.trainer import AdamState, TrainState, save_train_state
from reference import (aggregate_first_backward, aggregate_first_embed_all,
                       aggregate_first_forward, batched_embed_all,
                       keeping_backward, naive_dual_embeddings)


def _close(got, want):
    """Equal up to reassociation: within 1e-12, absolute or relative."""
    return np.allclose(got, want, rtol=1e-12, atol=1e-12)


class TestForward:
    def test_single_edge_hand_example(self, single_edge_graph):
        """One co-purchase edge 0 -> 1 with identity weights: the source
        of 0 picks up node 1's feature, the target of 1 node 0's."""
        g, X = single_edge_graph
        params = ModelParams([np.eye(2)])
        emb, _ = forward(full_blocks(g, [0, 1], 1), X, params)
        assert np.allclose(emb.theta_s[0], [1.0, 0.0], atol=1e-12)
        assert np.allclose(emb.theta_t[1], [np.sqrt(0.5), np.sqrt(0.5)],
                           atol=1e-12)
        assert np.array_equal(emb.theta_t[0], [0.0, 0.0])
        assert np.array_equal(emb.theta_s[1], [0.0, 0.0])

    def test_isolated_node_stays_zero(self):
        g = build_graph([(1, 2)], [], 4)
        X = np.ones((4, 3))
        params = ModelParams.init(3, 5, 2, np.random.default_rng(0))
        emb, _ = forward(full_blocks(g, [0], 2), X, params)
        assert np.array_equal(emb.theta_s[0], np.zeros(5))
        assert np.array_equal(emb.theta_t[0], np.zeros(5))

    def test_symmetric_coview_pair(self):
        """A lone symmetric co-view edge with shared features collapses
        all four outputs onto normalize(relu(x))."""
        x = np.array([0.6, -0.2, 1.0])
        g = build_graph([], [(0, 1)], 2)
        X = np.stack([x, x])
        params = ModelParams([np.eye(3)])
        emb, _ = forward(full_blocks(g, [0, 1], 1), X, params)
        expected = np.maximum(x, 0.0)
        expected = expected / np.linalg.norm(expected)
        for row in (emb.theta_s[0], emb.theta_s[1],
                    emb.theta_t[0], emb.theta_t[1]):
            assert np.allclose(row, expected, atol=1e-12)

    def test_matches_naive_reference(self, random_graph):
        g, X = random_graph(num_nodes=18, num_cp=45, num_cv=20, d_in=4, seed=8)
        params = ModelParams.init(4, 6, 3, np.random.default_rng(1))
        emb, _ = forward(full_blocks(g, np.arange(18), 3), X, params)
        ref_s, ref_t = naive_dual_embeddings(
            18, g.cp_edges, g.cv_pairs, X, params.weights)
        assert np.allclose(emb.theta_s, ref_s, atol=1e-10)
        assert np.allclose(emb.theta_t, ref_t, atol=1e-10)

    def test_unit_norm_invariant(self, random_graph):
        g, X = random_graph(num_nodes=30, num_cp=90, num_cv=40, seed=3)
        params = ModelParams.init(5, 8, 2, np.random.default_rng(2))
        emb, _ = forward(full_blocks(g, np.arange(30), 2), X, params)
        for mat in (emb.theta_s, emb.theta_t):
            norms = np.linalg.norm(mat, axis=1)
            nonzero = norms > 0
            assert np.all(np.abs(norms[nonzero] - 1.0) < 1e-6)

    def test_sampled_equals_full_when_fanout_slack(self, random_graph):
        g, X = random_graph(num_nodes=12, num_cp=25, num_cv=10, seed=6)
        params = ModelParams.init(5, 4, 2, np.random.default_rng(3))
        full, _ = forward(full_blocks(g, np.arange(12), 2), X, params)
        sampled, _ = forward(sample_blocks(g, np.arange(12), [100, 100],
                                           rng_seed=5), X, params)
        assert np.allclose(full.theta_s, sampled.theta_s, atol=1e-12)
        assert np.allclose(full.theta_t, sampled.theta_t, atol=1e-12)

    def test_permutation_equivariance(self, random_graph):
        g, X = random_graph(num_nodes=10, num_cp=20, num_cv=8, seed=12)
        params = ModelParams.init(5, 4, 2, np.random.default_rng(4))
        rng = np.random.default_rng(7)
        perm = rng.permutation(10)
        cp_p = perm[g.cp_edges]
        cv_p = perm[g.cv_pairs]
        g_p = build_graph(cp_p, cv_p, 10)
        X_p = np.empty_like(X)
        X_p[perm] = X
        emb, _ = forward(full_blocks(g, np.arange(10), 2), X, params)
        emb_p, _ = forward(full_blocks(g_p, np.arange(10), 2), X_p, params)
        assert np.allclose(emb.theta_s[np.argsort(perm)][perm],
                           emb.theta_s, atol=0)  # sanity on indexing
        assert np.allclose(emb_p.theta_s[perm], emb.theta_s, atol=1e-12)
        assert np.allclose(emb_p.theta_t[perm], emb.theta_t, atol=1e-12)

    def test_deterministic_across_runs(self, random_graph):
        g, X = random_graph(seed=1)
        params = ModelParams.init(5, 4, 2, np.random.default_rng(5))
        a, _ = forward(sample_blocks(g, np.arange(20), [3, 3], 9), X, params)
        b, _ = forward(sample_blocks(g, np.arange(20), [3, 3], 9), X, params)
        assert np.array_equal(a.theta_s, b.theta_s)
        assert np.array_equal(a.theta_t, b.theta_t)

    def test_shape_mismatch_rejected(self, single_edge_graph):
        g, X = single_edge_graph
        params = ModelParams([np.eye(3)])
        with pytest.raises(ValueError, match="dim"):
            forward(full_blocks(g, [0], 1), X, params)


class TestBackward:
    def test_zero_loss_grads_give_zero(self, random_graph):
        g, X = random_graph(seed=2)
        params = ModelParams.init(5, 4, 2, np.random.default_rng(6))
        _, tape = forward(full_blocks(g, np.arange(20), 2), X, params)
        grads = backward(tape, params,
                         np.zeros((20, 4)), np.zeros((20, 4)))
        for gmat in grads:
            assert np.array_equal(gmat, np.zeros_like(gmat))

    def test_single_edge_closed_form(self, single_edge_graph):
        """For loss = source(0) . target(1) with identity weights the
        only surviving gradient path runs through target(1); the source
        path dies in the normalization tangent and the inactive relu."""
        g, X = single_edge_graph
        params = ModelParams([np.eye(2)])
        blocks = full_blocks(g, [0, 1], 1)
        emb, tape = forward(blocks, X, params)
        gs = np.zeros((2, 2))
        gt = np.zeros((2, 2))
        gs[0] = emb.theta_t[1]
        gt[1] = emb.theta_s[0]
        grads = backward(tape, params, gs, gt)
        expected = np.outer([1.0, 1.0], [0.5, -0.5]) / np.sqrt(2.0)
        assert np.allclose(grads[0], expected, atol=1e-12)

    def test_gradcheck_full_loss(self, random_graph):
        """Central finite differences over every weight entry."""
        g, X = random_graph(num_nodes=20, num_cp=40, num_cv=15, d_in=5, seed=0)
        params = ModelParams.init(5, 4, 2, np.random.default_rng(3))
        edges = g.cp_edges
        negs = sample_negatives(g, edges, 2, rng_seed=5)
        batch = LossBatch(edges, one_way_mask(g, edges), g.cv_pairs, negs)
        blocks = full_blocks(g, np.arange(20), 2)

        emb, tape = forward(blocks, X, params)
        _, gs, gt = loss_grad(emb, batch)
        analytic = backward(tape, params, gs, gt)

        h = 1e-5
        max_rel = 0.0
        for l, w in enumerate(params.weights):
            for i in range(w.shape[0]):
                for j in range(w.shape[1]):
                    orig = w[i, j]
                    w[i, j] = orig + h
                    lp = asymmetric_loss(forward(blocks, X, params)[0], batch).total
                    w[i, j] = orig - h
                    lm = asymmetric_loss(forward(blocks, X, params)[0], batch).total
                    w[i, j] = orig
                    fd = (lp - lm) / (2 * h)
                    rel = abs(analytic[l][i, j] - fd) / max(abs(fd), 1e-6)
                    max_rel = max(max_rel, rel)
        assert max_rel < 1e-4


    def test_tape_grads_equal_fresh_forward(self, random_graph):
        """Grads from the step's own tape are bit-identical to grads from
        a recomputed forward, and a second backward on the same tape
        raises ValueError."""
        g, X = random_graph(num_nodes=20, num_cp=40, num_cv=15, d_in=5, seed=0)
        params = ModelParams.init(5, 4, 3, np.random.default_rng(3))
        edges = g.cp_edges
        negs = sample_negatives(g, edges, 2, rng_seed=5)
        batch = LossBatch(edges, one_way_mask(g, edges), g.cv_pairs, negs)
        blocks = sample_blocks(g, np.arange(20), [3, 3, 3], rng_seed=2)
        emb, tape = forward(blocks, X, params)
        _, gs, gt = loss_grad(emb, batch)
        from_tape = backward(tape, params, gs, gt)
        fresh = backward(forward(blocks, X, params)[1], params, gs, gt)
        with pytest.raises(ValueError, match="consumed"):
            backward(tape, params, gs, gt)
        for a, b in zip(from_tape, fresh):
            assert a.tobytes() == b.tobytes()

    @given(st.data())
    def test_consuming_backward_is_bit_equal_to_the_keeping_one(self, data):
        """Grads equal, byte for byte, those of the backward that leaves
        its tape whole, on capped and full blocks of 1-3 layers, with
        isolated nodes, zero feature rows and zero-norm output rows. The
        embeddings and the loss gradients are left as they were."""
        linked = data.draw(st.integers(1, 12), label="linked nodes")
        n = linked + data.draw(st.integers(0, 3), label="isolated nodes")
        pair = st.tuples(st.integers(0, linked - 1), st.integers(0, linked - 1))
        cp = data.draw(st.lists(pair, max_size=30))
        cv = data.draw(st.lists(pair, max_size=15))
        layers = data.draw(st.integers(1, 3), label="layers")
        seeds = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                   max_size=n))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        g = build_graph(cp, cv, n)
        if data.draw(st.booleans(), label="full blocks"):
            blocks = full_blocks(g, seeds, layers)
        else:
            caps = data.draw(st.lists(st.one_of(st.none(), st.integers(1, 3)),
                                      min_size=layers, max_size=layers))
            blocks = sample_blocks(g, seeds, caps, rng_seed=1)
        X = rng.normal(size=(n, 3))
        X[rng.random(n) < 0.2] = 0.0
        params = ModelParams.init(3, 4, layers, rng)
        emb, tape = forward(blocks, X, params)
        gs, gt = rng.normal(size=(2,) + emb.theta_s.shape)
        kept = [a.copy() for a in (emb.theta_s, emb.theta_t, gs, gt)]
        want = keeping_backward(tape, params, gs, gt)
        got = backward(tape, params, gs, gt)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        for now, before in zip((emb.theta_s, emb.theta_t, gs, gt), kept):
            assert now.tobytes() == before.tobytes()

    def test_backward_frees_the_tape(self, random_graph):
        """Every frontier, mask and selection matrix of the tape is dead
        once backward returns, when the caller has dropped the
        embeddings (the tape's top level)."""
        g, X = random_graph(seed=4)
        params = ModelParams.init(5, 4, 3, np.random.default_rng(1))
        emb, tape = forward(sample_blocks(g, np.arange(20), [3, 3, 3],
                                          rng_seed=1), X, params)
        gs, gt = np.random.default_rng(2).normal(size=(2,) + emb.theta_s.shape)
        refs = [weakref.ref(a) for level in tape.H for a in level.values()]
        refs += [weakref.ref(a) for step in tape.steps.values() for a in step]
        assert len(refs) == 2 * 4 + 2 * 3 * 5
        del emb
        backward(tape, params, gs, gt)
        assert sum(r() is not None for r in refs) == 0

    def test_tape_layer_mismatch_rejected(self, random_graph):
        g, X = random_graph(seed=2)
        params = ModelParams.init(5, 4, 2, np.random.default_rng(6))
        _, tape = forward(full_blocks(g, np.arange(20), 2), X, params)
        other = ModelParams.init(5, 4, 3, np.random.default_rng(6))
        with pytest.raises(ValueError, match="layers"):
            backward(tape, other, np.zeros((20, 4)), np.zeros((20, 4)))


class TestAggregateFirstOracle:
    """Transform-then-aggregate, relu(A @ (H @ W)), against the
    aggregate-then-transform code it replaced, relu((A @ H) @ W)."""

    @given(st.data())
    def test_forward_backward_and_embed_all_match(self, data):
        linked = data.draw(st.integers(1, 12), label="linked nodes")
        n = linked + data.draw(st.integers(0, 3), label="isolated nodes")
        pair = st.tuples(st.integers(0, linked - 1), st.integers(0, linked - 1))
        cp = data.draw(st.lists(pair, max_size=30))
        cv = data.draw(st.lists(pair, max_size=15))
        layers = data.draw(st.integers(1, 3), label="layers")
        caps = data.draw(st.lists(st.one_of(st.none(), st.integers(1, 3)),
                                  min_size=layers, max_size=layers))
        seeds = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                   max_size=n))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        g = build_graph(cp, cv, n)
        X = rng.normal(size=(n, 3))
        X[rng.random(n) < 0.2] = 0.0
        params = ModelParams.init(3, 4, layers, rng)
        blocks = sample_blocks(g, seeds, caps, rng_seed=1)

        emb, tape = forward(blocks, X, params)
        want, want_tape = aggregate_first_forward(blocks, X, params)
        assert _close(emb.theta_s, want.theta_s)
        assert _close(emb.theta_t, want.theta_t)
        gs, gt = rng.normal(size=(2,) + emb.theta_s.shape)
        for got, ref in zip(backward(tape, params, gs, gt),
                            aggregate_first_backward(want_tape, params, gs, gt)):
            assert _close(got, ref)
        whole = embed_all(g, X, params)
        ref = aggregate_first_embed_all(g, X, params)
        assert _close(whole.theta_s, ref.theta_s)
        assert _close(whole.theta_t, ref.theta_t)

    def test_weight_grads_match_on_a_training_batch(self, corpus):
        """A capped 3-layer batch of the default corpus, with the loss's
        own gradients."""
        _, g = corpus
        X = np.random.default_rng(2).normal(size=(g.num_nodes, 8))
        params = ModelParams.init(8, 16, 3, np.random.default_rng(3))
        edges = g.cp_edges[:300]
        negs = sample_negatives(g, edges, 3, rng_seed=4)
        batch = LossBatch(edges, one_way_mask(g, edges), g.cv_pairs[:100], negs)
        seeds = np.concatenate([edges.ravel(), negs.ravel(),
                                g.cv_pairs[:100].ravel()])
        blocks = sample_blocks(g, seeds, [20, 10, 10], rng_seed=5)
        emb, tape = forward(blocks, X, params)
        want, want_tape = aggregate_first_forward(blocks, X, params)
        assert _close(emb.theta_s, want.theta_s)
        assert _close(emb.theta_t, want.theta_t)
        _, gs, gt = loss_grad(emb, batch)
        for got, ref in zip(backward(tape, params, gs, gt),
                            aggregate_first_backward(want_tape, params, gs, gt)):
            assert _close(got, ref)


class TestEmbedAll:
    def test_row_count(self, random_graph):
        g, X = random_graph(num_nodes=17, seed=5)
        params = ModelParams.init(5, 4, 2, np.random.default_rng(1))
        emb = embed_all(g, X, params)
        assert emb.theta_s.shape == (17, 4)
        assert emb.theta_t.shape == (17, 4)
        assert np.array_equal(emb.nodes, np.arange(17))

    def test_matches_per_node_oracle(self, random_graph):
        g, X = random_graph(num_nodes=14, seed=9)
        params = ModelParams.init(5, 4, 3, np.random.default_rng(3))
        emb = embed_all(g, X, params)
        ref_s, ref_t = naive_dual_embeddings(
            14, g.cp_edges, g.cv_pairs, X, params.weights)
        assert np.allclose(emb.theta_s, ref_s, atol=1e-10)
        assert np.allclose(emb.theta_t, ref_t, atol=1e-10)

    @given(st.data())
    def test_matches_batched_and_naive_oracles(self, data):
        """Whole-graph layers equal the batched full-block pass (any batch
        size) and the per-node loop, up to BLAS blocking in the last ulp.
        Graphs may have isolated nodes, zero feature rows, or only one
        relation."""
        linked = data.draw(st.integers(1, 12), label="linked nodes")
        n = linked + data.draw(st.integers(0, 3), label="isolated nodes")
        pair = st.tuples(st.integers(0, linked - 1), st.integers(0, linked - 1))
        relations = data.draw(st.sampled_from(["both", "cp", "cv"]))
        cp = data.draw(st.lists(pair, max_size=30)) if relations != "cv" else []
        cv = data.draw(st.lists(pair, max_size=15)) if relations != "cp" else []
        layers = data.draw(st.integers(1, 3), label="layers")
        batch = data.draw(st.integers(1, n + 1), label="oracle batch size")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        g = build_graph(cp, cv, n)
        X = rng.normal(size=(n, 3))
        X[rng.random(n) < 0.2] = 0.0
        params = ModelParams.init(3, 4, layers, rng)
        emb = embed_all(g, X, params)
        assert np.array_equal(emb.nodes, np.arange(n))
        want_s, want_t = batched_embed_all(g, X, params, batch_size=batch)
        naive_s, naive_t = naive_dual_embeddings(n, g.cp_edges, g.cv_pairs,
                                                 X, params.weights)
        for got, want, naive in ((emb.theta_s, want_s, naive_s),
                                 (emb.theta_t, want_t, naive_t)):
            assert np.allclose(got, want, rtol=0, atol=1e-12)
            assert np.allclose(got, naive, rtol=0, atol=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_features_raise(self, random_graph, bad):
        g, X = random_graph(num_nodes=12, seed=4)
        X[int(g.cp_edges[0, 1])] = bad
        params = ModelParams.init(5, 4, 2, np.random.default_rng(5))
        with pytest.raises(NumericalError, match="non-finite"):
            embed_all(g, X, params)

    def test_feature_shape_mismatch_rejected(self, random_graph):
        g, X = random_graph(num_nodes=12, seed=4)
        params = ModelParams.init(5, 4, 2, np.random.default_rng(5))
        with pytest.raises(ValueError, match="shape"):
            embed_all(g, X[:-1], params)
        with pytest.raises(ValueError, match="shape"):
            embed_all(g, X[:, :-1], params)


class TestPersistence:
    def test_checkpoint_roundtrip(self, tmp_path):
        params = ModelParams.init(6, 4, 3, np.random.default_rng(0))
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert loaded.num_layers == 3
        for a, b in zip(params.weights, loaded.weights):
            assert np.array_equal(a, b)

    def test_checkpoint_bad_magic(self, tmp_path):
        path = tmp_path / "model.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(DataFormatError, match="magic"):
            load_checkpoint(path)

    def test_checkpoint_truncated(self, tmp_path):
        params = ModelParams.init(6, 4, 2, np.random.default_rng(0))
        path = tmp_path / "model.ckpt"
        save_checkpoint(params, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(DataFormatError, match="truncated"):
            load_checkpoint(path)

    def test_checkpoint_deterministic_bytes(self, tmp_path):
        params = ModelParams.init(5, 3, 2, np.random.default_rng(4))
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(params, p1)
        save_checkpoint(params, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_embedding_dump_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        emb = DualEmbeddings(nodes=np.arange(4),
                             theta_s=rng.normal(size=(4, 3)),
                             theta_t=rng.normal(size=(4, 3)))
        km = KeyMap([f"p{i}" for i in range(4)])
        path = tmp_path / "emb.tsv"
        dump_embeddings(emb, km, path)
        loaded, km2 = load_embeddings(path)
        assert np.array_equal(loaded.theta_s, emb.theta_s)
        assert np.array_equal(loaded.theta_t, emb.theta_t)
        assert km2.keys() == km.keys()

    @pytest.mark.parametrize("body, line", [
        ("2\t2\na\tS:1,2\tT:3,4\na\tS:1,2\tT:3,4\n", 3),   # duplicate key
        ("2\t2\na\tS:1,2\tT:3,4\nb\tS:nan,2\tT:3,4\n", 3),  # NaN
        ("1\t2\na\tS:1,2\tT:inf,4\n", 2),                    # infinity
        ("1\t2\na\tS:1,2\tT:3,4\nb\tS:1,2\tT:3,4\n", 3),   # extra row
        ("2\t2\na\tS:1,2\tT:3,4\nb\tS:1,2,5\tT:3,4\n", 3),  # ragged S
        ("2\t2\na\tS:1\tT:3\nb\tS:1,2\tT:3,4\n", 2),        # short row
        ("1\t2\na\tS:1,x\tT:3,4\n", 2),                      # not a float
        ("1\t2\na\tS:1,2\n", 2),                              # missing T
        ("two\t2\na\tS:1,2\tT:3,4\n", 1),                     # bad header
        ("1\n", 1),                                            # short header
    ], ids=["duplicate-key", "nan", "inf", "extra-row", "ragged-s",
            "short-row", "not-a-float", "missing-t", "bad-header",
            "short-header"])
    def test_malformed_embeddings_rejected_with_line(self, tmp_path, body, line):
        path = tmp_path / "emb.tsv"
        path.write_text(body)
        with pytest.raises(DataFormatError, match=rf"line {line}\b"):
            load_embeddings(path)


class _FailingFile:
    """File wrapper whose second write raises, as a full disk would."""

    def __init__(self, f):
        self._f = f
        self._writes = 0

    def write(self, data):
        self._writes += 1
        if self._writes > 1:
            raise OSError("no space left on device")
        return self._f.write(data)

    def __getattr__(self, name):
        return getattr(self._f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


def _writers():
    params = ModelParams.init(3, 2, 2, np.random.default_rng(0))
    emb = DualEmbeddings(nodes=np.arange(2), theta_s=np.ones((2, 2)),
                         theta_t=np.zeros((2, 2)))
    state = TrainState(params=params, adam=AdamState.zeros(params))
    return {
        "model.ckpt": lambda path: save_checkpoint(params, path),
        "embeddings.tsv": lambda path: dump_embeddings(
            emb, KeyMap(["a", "b"]), path),
        "train_state.ckpt": lambda path: save_train_state(state, path),
    }


@pytest.mark.parametrize("name", sorted(_writers()))
def test_failed_write_keeps_old_file(tmp_path, monkeypatch, name):
    write = _writers()[name]
    path = tmp_path / name
    path.write_bytes(b"previous contents")
    real_open = open
    monkeypatch.setattr(util, "open",
                        lambda *a, **k: _FailingFile(real_open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError, match="no space"):
        write(path)
    assert path.read_bytes() == b"previous contents"
    assert os.listdir(tmp_path) == [name]
    monkeypatch.undo()
    write(path)
    assert path.read_bytes() != b"previous contents"
    assert os.listdir(tmp_path) == [name]
