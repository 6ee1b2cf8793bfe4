import dataclasses
import io

import numpy as np
import pytest

from asymgraph.errors import DataFormatError, NumericalError
from asymgraph.graph import build_graph
from asymgraph import trainer
from asymgraph.formats import load_config, save_config
from asymgraph.model import ModelParams, embed_all
from asymgraph.trainer import (AdamState, TrainConfig, _incident_cv_pairs,
                               adam_step, resume, save_train_state, train)
from asymgraph.util import STREAM_INIT, derive_rng

TOY_CFG = dict(batch_size=16, num_layers=1, embed_dim=4, fanouts=(4,),
               num_negatives=1)


@pytest.fixture
def toy():
    g = build_graph([(0, 1)], [], 2)
    X = np.array([[1.0, 1.0], [1.0, 0.0]])
    return g, X


@pytest.fixture
def small(random_graph):
    g, X = random_graph(num_nodes=30, num_cp=70, num_cv=25, d_in=6, seed=21)
    cfg = TrainConfig(lr=1e-3, batch_size=16, max_epochs=4, num_layers=2,
                      embed_dim=8, fanouts=(5, 5), num_negatives=2)
    return g, X, cfg


def test_adam_matches_reference_recurrence():
    """Scripted one-parameter problem against the textbook update."""
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    params = ModelParams([np.array([[0.5]])])
    state = AdamState.zeros(params)
    w_ref, m_ref, v_ref = 0.5, 0.0, 0.0
    rng = np.random.default_rng(0)
    for t in range(1, 25):
        grad = float(rng.normal())
        adam_step(params, [np.array([[grad]])], state, lr, b1, b2, eps)
        m_ref = b1 * m_ref + (1 - b1) * grad
        v_ref = b2 * v_ref + (1 - b2) * grad * grad
        m_hat = m_ref / (1 - b1 ** t)
        v_hat = v_ref / (1 - b2 ** t)
        w_ref -= lr * m_hat / (np.sqrt(v_hat) + eps)
        assert params.weights[0][0, 0] == pytest.approx(w_ref, abs=1e-12)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_lr_zero_leaves_params_unchanged(toy):
    g, X = toy
    cfg = TrainConfig(lr=0.0, max_epochs=3, **TOY_CFG)
    result = train(g, X, cfg)
    expected = ModelParams.init(2, 4, 1, derive_rng(cfg.root_seed, STREAM_INIT))
    for a, b in zip(result.params.weights, expected.weights):
        assert np.array_equal(a, b)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_toy_graph_learns_asymmetry(toy):
    """Full-batch training on the lone one-way edge must push the
    forward relevance above the reverse one."""
    g, X = toy
    cfg = TrainConfig(lr=0.05, max_epochs=200, patience=1000, **TOY_CFG)
    result = train(g, X, cfg)
    emb = embed_all(g, X, result.params)
    forward_rel = float(emb.theta_s[0] @ emb.theta_t[1])
    reverse_rel = float(emb.theta_s[1] @ emb.theta_t[0])
    assert forward_rel > reverse_rel


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_same_seed_bit_identical(toy):
    g, X = toy
    cfg = TrainConfig(lr=0.05, max_epochs=20, patience=100, **TOY_CFG)
    a = train(g, X, cfg)
    b = train(g, X, cfg)
    for wa, wb in zip(a.params.weights, b.params.weights):
        assert np.array_equal(wa, wb)


def test_checkpoint_files_bit_identical(small, tmp_path):
    g, X, cfg = small
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    out_a.mkdir(), out_b.mkdir()
    train(g, X, cfg, out_dir=out_a)
    train(g, X, cfg, out_dir=out_b)
    assert (out_a / "model.ckpt").read_bytes() == (out_b / "model.ckpt").read_bytes()
    assert (out_a / "train_state.ckpt").read_bytes() == \
        (out_b / "train_state.ckpt").read_bytes()


def test_resume_reproduces_straight_run(small, tmp_path):
    g, X, cfg = small
    straight = train(g, X, cfg)
    short_cfg = dataclasses.replace(cfg, max_epochs=2)
    train(g, X, short_cfg, out_dir=tmp_path)
    state = resume(tmp_path / "train_state.ckpt")
    assert state.epoch == 2
    resumed = train(g, X, cfg, state=state)
    for wa, wb in zip(straight.state.params.weights,
                      resumed.state.params.weights):
        assert np.array_equal(wa, wb)


def test_resume_rejects_changed_dims(small, tmp_path):
    g, X, cfg = small
    train(g, X, dataclasses.replace(cfg, max_epochs=1), out_dir=tmp_path)
    state = resume(tmp_path / "train_state.ckpt")
    bigger = dataclasses.replace(cfg, embed_dim=16, fanouts=cfg.fanouts)
    with pytest.raises(DataFormatError, match="embed_dim"):
        train(g, X, bigger, state=state)


def test_resume_corrupt_magic(tmp_path):
    path = tmp_path / "train_state.ckpt"
    path.write_bytes(b"WRONGMAG" + b"\x00" * 100)
    with pytest.raises(DataFormatError, match="magic"):
        resume(path)


def test_train_state_roundtrip(small, tmp_path):
    g, X, cfg = small
    result = train(g, X, cfg)
    path = tmp_path / "state.ckpt"
    save_train_state(result.state, path)
    loaded = resume(path)
    assert loaded.epoch == result.state.epoch
    assert loaded.adam.t == result.state.adam.t
    assert loaded.best_epoch == result.state.best_epoch
    for a, b in zip(result.state.adam.m, loaded.adam.m):
        assert np.array_equal(a, b)


def test_training_log_format(small, tmp_path):
    g, X, cfg = small
    stream = io.StringIO()
    train(g, X, dataclasses.replace(cfg, max_epochs=1), log_stream=stream)
    lines = stream.getvalue().strip().split("\n")
    assert len(lines) == int(np.ceil(len(g.cp_edges) / cfg.batch_size))
    cols = lines[0].split("\t")
    assert len(cols) == 10  # epoch, batch, total, six terms, wall-ms
    assert cols[0] == "0" and cols[1] == "0"
    float(cols[2])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_loss_aborts_with_batch(small):
    g, X, cfg = small
    bad = X.copy()
    bad[0, 0] = 1e308  # overflows inside the aggregation
    with pytest.raises((NumericalError, DataFormatError)) as err:
        train(g, bad * 1e308, cfg)
    assert "layer" in str(err.value) or "batch" in str(err.value) \
        or "finite" in str(err.value)


def test_empty_training_graph_rejected():
    g = build_graph([], [(0, 1)], 2)
    with pytest.raises(ValueError, match="no co-purchase"):
        train(g, np.ones((2, 2)), TrainConfig(**TOY_CFG))


def test_config_roundtrip(tmp_path):
    cfg = TrainConfig(lr=5e-4, batch_size=256, max_epochs=7, num_layers=2,
                      embed_dim=16, fanouts=(8, 4), num_negatives=3,
                      root_seed=11, patience=2)
    path = tmp_path / "config.txt"
    save_config(cfg, path)
    loaded = load_config(path, TrainConfig)
    assert loaded == cfg


def test_config_rejects_bad_lines(tmp_path):
    path = tmp_path / "config.txt"
    path.write_text("lr = fast\n")
    with pytest.raises(DataFormatError):
        load_config(path, TrainConfig)
    path.write_text("warp_speed = 9\n")
    with pytest.raises(DataFormatError):
        load_config(path, TrainConfig)
    path.write_text("num_layers = 2\nfanouts = 5\n")
    with pytest.raises(DataFormatError):
        load_config(path, TrainConfig)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(fanouts=(20, 10))  # wrong length for 3 layers
    with pytest.raises(ValueError):
        TrainConfig(term_weights=(1, 1, 1))


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_epoch_loss_non_increasing_smoke(corpus):
    """Mean per-edge loss must not rise over the first three epochs with
    default settings on the synthetic corpus (one 2% excursion allowed)."""
    from asymgraph import evaluation
    data, g = corpus
    split = evaluation.make_edge_split(g, seed=0)
    g_train = evaluation.train_graph(g, split)
    cfg = TrainConfig(max_epochs=3)
    result = train(g_train, data.features, cfg, split=split)
    losses = [h.mean_loss for h in result.history]
    assert len(losses) == 3
    excursions = sum(1 for a, b in zip(losses, losses[1:]) if b > 1.02 * a)
    assert excursions == 0
    slack = sum(1 for a, b in zip(losses, losses[1:]) if b > a)
    assert slack <= 1


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_validation_early_stopping(random_graph):
    from asymgraph import evaluation
    g, X = random_graph(num_nodes=40, num_cp=120, num_cv=40, d_in=6, seed=33)
    split = evaluation.make_edge_split(g, seed=1)
    g_train = evaluation.train_graph(g, split)
    cfg = TrainConfig(lr=1e-5, batch_size=64, max_epochs=30, num_layers=2,
                      embed_dim=8, fanouts=(5, 5), num_negatives=2, patience=2)
    result = train(g_train, X, cfg, split=split)
    ran = len(result.history)
    assert ran <= cfg.max_epochs
    assert result.state.best_epoch >= 0
    # best checkpoint corresponds to the best recorded validation metric
    best = max(h.val_mrr10 for h in result.history)
    assert result.state.best_metric == pytest.approx(best)


def test_one_step_runs_one_forward(small, monkeypatch):
    """backward reuses the forward tape instead of recomputing it."""
    g, X, cfg = small
    calls = []
    real = trainer.forward

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(trainer, "forward", counting)
    one_batch = dataclasses.replace(cfg, max_epochs=1,
                                    batch_size=len(g.cp_edges))
    train(g, X, one_batch)
    assert len(calls) == 1


def test_one_loss_pass_per_batch(small, monkeypatch):
    """The loss value and its gradients come from one call per batch."""
    g, X, cfg = small
    calls = []
    real = trainer.loss_grad

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(trainer, "loss_grad", counting)
    two_epochs = dataclasses.replace(cfg, max_epochs=2)
    result = train(g, X, two_epochs)
    batches = -(-len(g.cp_edges) // cfg.batch_size)
    assert batches > 1 and len(result.history) == 2
    assert len(calls) == 2 * batches


def test_incident_cv_pairs_matches_set_filter(random_graph):
    g, _ = random_graph(num_nodes=25, num_cp=30, num_cv=80, seed=16)
    endpoints = np.array([1, 4, 9, 20])
    picked = set(endpoints.tolist())
    want = [p for p in g.cv_pairs.tolist() if p[0] in picked or p[1] in picked]
    got = _incident_cv_pairs(g, endpoints, cap=1000, rng_seed=0)
    assert got.tolist() == want
    capped = _incident_cv_pairs(g, endpoints, cap=3, rng_seed=0)
    assert len(capped) == 3 and all(p in want for p in capped.tolist())
