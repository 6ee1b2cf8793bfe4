"""Minibatch training loop: sample, forward, loss, backward, Adam.

Every random draw is derived from (root_seed, stream, epoch, batch), so a
run is bit-reproducible and a resumed run continues the exact sequence an
uninterrupted run would have produced.
"""

from __future__ import annotations

import dataclasses
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import retrieval
from .errors import DataFormatError, NumericalError
from .graph import DirectedProductGraph, one_way_mask
from .loss import NUM_TERMS, LossBatch, asymmetric_loss, loss_grad
from .model import (ModelParams, backward, embed_all, forward,
                    save_checkpoint)
from .sampler import sample_blocks, sample_negatives
from .util import (STREAM_BLOCKS, STREAM_COVIEW, STREAM_INIT,
                   STREAM_NEGATIVES, STREAM_SHUFFLE, atomic_write, derive_rng)

STATE_MAGIC = b"ASYMGTRN"
STATE_VERSION = 1


def derive_seed(*tokens: int) -> int:
    """Collapse seed tokens into one integer seed for int-seeded APIs."""
    return int(np.random.SeedSequence([int(t) for t in tokens]).generate_state(1)[0])


@dataclass
class TrainConfig:
    lr: float = 1e-4
    batch_size: int = 1024
    max_epochs: int = 30
    num_layers: int = 3
    embed_dim: int = 64
    fanouts: tuple = (20, 10, 10)
    num_negatives: int = 5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    root_seed: int = 0
    patience: int = 5
    coview_per_batch: int = 1024
    negative_form: str = "one_minus_dot"
    term_weights: tuple = (1.0, 1.0, 1.0, 1.0, 1.0, 1.0)

    def __post_init__(self):
        self.fanouts = tuple(int(x) for x in self.fanouts)
        self.term_weights = tuple(float(x) for x in self.term_weights)
        positive = {"lr": self.lr, "batch_size": self.batch_size,
                    "max_epochs": self.max_epochs, "num_layers": self.num_layers,
                    "embed_dim": self.embed_dim, "num_negatives": self.num_negatives,
                    "beta1": self.beta1, "beta2": self.beta2, "eps": self.eps,
                    "patience": self.patience,
                    "coview_per_batch": self.coview_per_batch}
        for name, val in positive.items():
            if val <= 0 and not (name == "lr" and val == 0.0):
                raise ValueError(f"{name} must be positive, got {val}")
        if self.root_seed < 0:
            raise ValueError("root_seed must be non-negative")
        if len(self.fanouts) != self.num_layers:
            raise ValueError(
                f"fanouts {self.fanouts} must have num_layers={self.num_layers} entries")
        if any(f < 1 for f in self.fanouts):
            raise ValueError("fanout caps must be >= 1")
        if len(self.term_weights) != NUM_TERMS:
            raise ValueError(f"expected {NUM_TERMS} term weights")


_TUPLE_FIELDS = {"fanouts", "term_weights"}


def load_config(path) -> TrainConfig:
    """Parse a `key = value` config file mirroring TrainConfig fields."""
    fields = {f.name: f for f in dataclasses.fields(TrainConfig)}
    values = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if not sep or key not in fields:
                raise DataFormatError(
                    f"{path}: bad config line {lineno}: {line!r}")
            try:
                if key in _TUPLE_FIELDS:
                    values[key] = tuple(
                        float(x) if key == "term_weights" else int(x)
                        for x in raw.split(","))
                elif key == "negative_form":
                    values[key] = raw
                elif key in ("batch_size", "max_epochs", "num_layers",
                             "embed_dim", "num_negatives", "root_seed",
                             "patience", "coview_per_batch"):
                    values[key] = int(raw)
                else:
                    values[key] = float(raw)
            except ValueError:
                raise DataFormatError(
                    f"{path}: bad value for {key} on line {lineno}") from None
    try:
        return TrainConfig(**values)
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from None


def save_config(cfg: TrainConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for fld in dataclasses.fields(TrainConfig):
            val = getattr(cfg, fld.name)
            if isinstance(val, tuple):
                val = ",".join(str(x) for x in val)
            f.write(f"{fld.name} = {val}\n")


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    t: int = 0

    @classmethod
    def zeros(cls, params: ModelParams) -> "AdamState":
        return cls(m=[np.zeros_like(w) for w in params.weights],
                   v=[np.zeros_like(w) for w in params.weights])


def adam_step(params: ModelParams, grads: list[np.ndarray], state: AdamState,
              lr: float, beta1: float, beta2: float, eps: float) -> None:
    """Standard bias-corrected Adam update, in place."""
    state.t += 1
    t = state.t
    for w, g, m, v in zip(params.weights, grads, state.m, state.v):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        w -= lr * m_hat / (np.sqrt(v_hat) + eps)


@dataclass
class TrainState:
    params: ModelParams
    adam: AdamState
    epoch: int = 0                      # next epoch to run
    best_params: ModelParams | None = None
    best_metric: float = -np.inf
    best_epoch: int = -1
    epochs_since_best: int = 0


@dataclass
class EpochStats:
    epoch: int
    mean_loss: float
    val_mrr10: float | None


@dataclass
class TrainResult:
    params: ModelParams            # best checkpoint (by validation metric)
    state: TrainState
    history: list[EpochStats] = field(default_factory=list)


def _write_matrices(f, mats: list[np.ndarray]) -> None:
    for w in mats:
        f.write(np.ascontiguousarray(w, dtype="<f8").tobytes())


def _read_matrix(f, rows: int, cols: int, path) -> np.ndarray:
    raw = f.read(rows * cols * 8)
    if len(raw) != rows * cols * 8:
        raise DataFormatError(f"{path}: truncated training state")
    return np.frombuffer(raw, dtype="<f8").reshape(rows, cols).copy()


def save_train_state(state: TrainState, path) -> None:
    """Binary training state, written atomically."""
    p = state.params
    with atomic_write(path, "wb") as f:
        f.write(STATE_MAGIC)
        f.write(struct.pack("<IIII", STATE_VERSION, p.num_layers,
                            p.input_dim, p.embed_dim))
        _write_matrices(f, p.weights)
        _write_matrices(f, state.adam.m)
        _write_matrices(f, state.adam.v)
        best = state.best_params if state.best_params is not None else p
        _write_matrices(f, best.weights)
        f.write(struct.pack("<qqqq", state.adam.t, state.epoch,
                            state.best_epoch, state.epochs_since_best))
        f.write(struct.pack("<d", state.best_metric))


def resume(path) -> TrainState:
    """Load a training state; continuing from it reproduces the exact
    sequence an uninterrupted run would have produced."""
    with open(path, "rb") as f:
        magic = f.read(len(STATE_MAGIC))
        if magic != STATE_MAGIC:
            raise DataFormatError(f"{path}: bad training-state magic {magic!r}")
        header = f.read(16)
        if len(header) != 16:
            raise DataFormatError(f"{path}: truncated training-state header")
        version, L, d_in, d_h = struct.unpack("<IIII", header)
        if version != STATE_VERSION:
            raise DataFormatError(f"{path}: unsupported state version {version}")
        shapes = [((d_in if l == 0 else d_h), d_h) for l in range(L)]
        weights = [_read_matrix(f, r, c, path) for r, c in shapes]
        m = [_read_matrix(f, r, c, path) for r, c in shapes]
        v = [_read_matrix(f, r, c, path) for r, c in shapes]
        best = [_read_matrix(f, r, c, path) for r, c in shapes]
        tail = f.read(40)
        if len(tail) != 40:
            raise DataFormatError(f"{path}: truncated training-state footer")
        adam_t, epoch, best_epoch, since_best = struct.unpack("<qqqq", tail[:32])
        (best_metric,) = struct.unpack("<d", tail[32:])
    return TrainState(params=ModelParams(weights),
                      adam=AdamState(m=m, v=v, t=adam_t),
                      epoch=epoch,
                      best_params=ModelParams(best),
                      best_metric=best_metric,
                      best_epoch=best_epoch,
                      epochs_since_best=since_best)


def _check_state_matches(state: TrainState, cfg: TrainConfig,
                         input_dim: int) -> None:
    p = state.params
    if (p.num_layers, p.input_dim, p.embed_dim) != \
            (cfg.num_layers, input_dim, cfg.embed_dim):
        raise DataFormatError(
            "training state does not match config: state has "
            f"(layers={p.num_layers}, input_dim={p.input_dim}, "
            f"embed_dim={p.embed_dim}), config wants (layers={cfg.num_layers}, "
            f"input_dim={input_dim}, embed_dim={cfg.embed_dim})")


def _incident_cv_pairs(g: DirectedProductGraph, endpoints: np.ndarray,
                       cap: int, rng_seed: int) -> np.ndarray:
    pairs = g.cv_pairs
    if len(pairs) == 0:
        return pairs
    touched = np.zeros(g.num_nodes, dtype=bool)
    touched[endpoints] = True
    hit = pairs[touched[pairs[:, 0]] | touched[pairs[:, 1]]]
    if len(hit) > cap:
        rng = derive_rng(rng_seed)
        sel = rng.choice(len(hit), size=cap, replace=False)
        hit = hit[np.sort(sel)]
    return hit


def validation_mrr10(g: DirectedProductGraph, features: np.ndarray,
                     params: ModelParams, val_edges: np.ndarray) -> float:
    """MRR@10 of held-out edges, ranking against all products minus the
    query and its known co-purchase out-neighbors."""
    from .evaluation import hitrate_mrr, rank_queries
    emb = embed_all(g, features, params)
    index = retrieval.EmbeddingIndex.build(emb, graph=g)
    rankings = rank_queries(index, np.unique(val_edges[:, 0]), k=10)
    report = hitrate_mrr(rankings, val_edges, (10,))
    return report.mrr[10]


def train(g: DirectedProductGraph, features: np.ndarray, cfg: TrainConfig,
          split=None, out_dir=None, state: TrainState | None = None,
          log_stream=None) -> TrainResult:
    """Run the training loop over the graph's co-purchase edges.

    `split` (optional) supplies validation edges for early stopping on
    MRR@10; the graph passed in should already be the training graph.
    Emits one tab-separated log line per batch when log_stream is given.
    """
    edges = g.cp_edges
    if len(edges) == 0:
        raise ValueError("training graph has no co-purchase edges")
    if features.shape[0] != g.num_nodes:
        raise DataFormatError(
            f"feature rows {features.shape[0]} != num nodes {g.num_nodes}")
    flags = one_way_mask(g, edges)
    val_edges = None
    if split is not None and getattr(split, "val_edges", None) is not None \
            and len(split.val_edges):
        val_edges = np.asarray(split.val_edges)

    if state is None:
        params = ModelParams.init(
            features.shape[1], cfg.embed_dim, cfg.num_layers,
            derive_rng(cfg.root_seed, STREAM_INIT))
        state = TrainState(params=params, adam=AdamState.zeros(params))
    else:
        _check_state_matches(state, cfg, features.shape[1])
    params = state.params

    out = Path(out_dir) if out_dir is not None else None
    history: list[EpochStats] = []
    stop = False
    for epoch in range(state.epoch, cfg.max_epochs):
        order = derive_rng(cfg.root_seed, STREAM_SHUFFLE, epoch).permutation(len(edges))
        epoch_loss = 0.0
        for b, start in enumerate(range(0, len(edges), cfg.batch_size)):
            t0 = time.perf_counter()
            idx = order[start:start + cfg.batch_size]
            batch_edges = edges[idx]
            batch_flags = flags[idx]
            negatives = sample_negatives(
                g, batch_edges, cfg.num_negatives,
                rng_seed=derive_seed(cfg.root_seed, STREAM_NEGATIVES, epoch, b))
            endpoints = np.unique(batch_edges)
            cv_sel = _incident_cv_pairs(
                g, endpoints, cfg.coview_per_batch,
                derive_seed(cfg.root_seed, STREAM_COVIEW, epoch, b))
            touched = [batch_edges.ravel(), negatives.ravel()]
            if len(cv_sel):
                touched.append(cv_sel.ravel())
            seeds = np.unique(np.concatenate(touched))
            blocks = sample_blocks(
                g, seeds, cfg.fanouts,
                rng_seed=derive_seed(cfg.root_seed, STREAM_BLOCKS, epoch, b))
            emb, tape = forward(blocks, features, params)
            batch = LossBatch(batch_edges, batch_flags, cv_sel, negatives)
            value = asymmetric_loss(emb, batch, weights=cfg.term_weights,
                                    negative_form=cfg.negative_form)
            if not np.isfinite(value.total):
                raise NumericalError(
                    f"non-finite loss at epoch {epoch} batch {b}")
            gs, gt = loss_grad(emb, batch, weights=cfg.term_weights,
                               negative_form=cfg.negative_form)
            grads = backward(tape, params, gs, gt)
            adam_step(params, grads, state.adam,
                      cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
            epoch_loss += value.total
            if log_stream is not None:
                ms = (time.perf_counter() - t0) * 1e3
                terms = "\t".join(f"{x:.6f}" for x in value.per_term_loss)
                log_stream.write(
                    f"{epoch}\t{b}\t{value.total:.6f}\t{terms}\t{ms:.1f}\n")

        val_metric = None
        if val_edges is not None:
            val_metric = validation_mrr10(g, features, params, val_edges)
        history.append(EpochStats(epoch=epoch,
                                  mean_loss=epoch_loss / len(edges),
                                  val_mrr10=val_metric))
        state.epoch = epoch + 1
        improved = (val_metric is None) or (val_metric > state.best_metric)
        if improved:
            state.best_metric = val_metric if val_metric is not None else -np.inf
            state.best_epoch = epoch
            state.best_params = params.copy()
            state.epochs_since_best = 0
            if out is not None:
                save_checkpoint(state.best_params, out / "model.ckpt")
        else:
            state.epochs_since_best += 1
            if state.epochs_since_best >= cfg.patience:
                stop = True
        if out is not None:
            save_train_state(state, out / "train_state.ckpt")
        if stop:
            break

    if state.best_params is None:
        state.best_params = params.copy()
        if out is not None:
            save_checkpoint(state.best_params, out / "model.ckpt")
    return TrainResult(params=state.best_params, state=state, history=history)
