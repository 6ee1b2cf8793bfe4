"""Minibatch training loop: sample, forward, loss, backward, Adam.

Every random draw is derived from (root_seed, stream, epoch, batch), so a
run is bit-reproducible and a resumed run continues the exact sequence an
uninterrupted run would have produced.
"""

from __future__ import annotations

import dataclasses
import hashlib
import struct
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataFormatError, NumericalError
from .evaluation import ranking_report
from .formats import read_binary, write_binary
from .graph import DirectedProductGraph, one_way_mask
from .loss import NEGATIVE_FORMS, NUM_TERMS, LossBatch, loss_grad
from .model import (ModelParams, backward, embed_all, forward,
                    save_checkpoint)
from .sampler import sample_blocks, sample_negatives
from .util import (STREAM_BLOCKS, STREAM_COVIEW, STREAM_INIT,
                   STREAM_NEGATIVES, STREAM_SHUFFLE, derive_rng)

STATE_MAGIC = b"ASYMGTRN"
STATE_VERSION = 2
# Adam step, next epoch, best epoch, epochs since best, best metric, and
# the `run_digest` of the run that wrote the state
STATE_TAIL = struct.Struct("<qqqqd32s")


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
        # one type per field, so equal configs have equal `run_digest`s
        self.lr, self.beta1, self.beta2, self.eps = map(
            float, (self.lr, self.beta1, self.beta2, self.eps))
        self.fanouts = tuple(int(x) for x in self.fanouts)
        self.term_weights = tuple(float(x) for x in self.term_weights)
        for name in ("lr", "batch_size", "max_epochs", "num_layers",
                     "embed_dim", "num_negatives", "eps", "patience",
                     "coview_per_batch"):
            val = getattr(self, name)
            if not 0 < val < np.inf and not (name == "lr" and val == 0.0):
                raise ValueError(f"{name} must be positive and finite, got {val}")
        if self.root_seed < 0:
            raise ValueError("root_seed must be non-negative")
        if len(self.fanouts) != self.num_layers:
            raise ValueError(
                f"fanouts {self.fanouts} must have num_layers={self.num_layers} entries")
        if any(f < 1 for f in self.fanouts):
            raise ValueError("fanout caps must be >= 1")
        if len(self.term_weights) != NUM_TERMS:
            raise ValueError(f"expected {NUM_TERMS} term weights")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(
                    f"{name} must be in [0, 1), got {getattr(self, name)}")
        if self.negative_form not in NEGATIVE_FORMS:
            raise ValueError(f"negative_form must be one of {NEGATIVE_FORMS}, "
                             f"got {self.negative_form!r}")


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
    digest: bytes = b""                 # `run_digest` of the writing run


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


def save_train_state(state: TrainState, path) -> None:
    """Binary training state (see `formats`): stacks of weights, Adam
    moments m and v and best weights, then `STATE_TAIL`."""
    p = state.params
    best = state.best_params if state.best_params is not None else p
    write_binary(path, STATE_MAGIC, STATE_VERSION,
                 [p.weights, state.adam.m, state.adam.v, best.weights],
                 STATE_TAIL.pack(state.adam.t, state.epoch, state.best_epoch,
                                 state.epochs_since_best, state.best_metric,
                                 state.digest))


def resume(path) -> TrainState:
    """Load a training state; continuing from it reproduces the exact
    sequence an uninterrupted run would have produced."""
    (weights, m, v, best), tail = read_binary(
        path, STATE_MAGIC, STATE_VERSION, 4, STATE_TAIL.size)
    adam_t, epoch, best_epoch, since_best, best_metric, digest = \
        STATE_TAIL.unpack(tail)
    if min(adam_t, epoch, best_epoch + 1, since_best) < 0:
        raise DataFormatError(f"{path}: negative training-state counters")
    return TrainState(params=ModelParams(weights),
                      adam=AdamState(m=m, v=v, t=adam_t), epoch=epoch,
                      best_params=ModelParams(best), best_metric=best_metric,
                      best_epoch=best_epoch, epochs_since_best=since_best,
                      digest=digest)


def run_digest(cfg: TrainConfig, g: DirectedProductGraph,
               features: np.ndarray) -> bytes:
    """SHA-256 of what a resumed run must share with the run that wrote
    its state: every config field but max_epochs, the training graph and
    the features."""
    fields = [(f.name, getattr(cfg, f.name)) for f in dataclasses.fields(cfg)
              if f.name != "max_epochs"]
    h = hashlib.sha256(repr((fields, g.num_nodes)).encode())
    for a in (np.ascontiguousarray(g.cp_edges, "<i8"),
              np.ascontiguousarray(g.cv_pairs, "<i8"),
              np.ascontiguousarray(features, "<f8")):
        h.update(repr(a.shape).encode())
        h.update(a)
    return h.digest()


def check_resumable(state: TrainState, cfg: TrainConfig,
                    g: DirectedProductGraph, features: np.ndarray) -> None:
    """Refuse a training state that a different run wrote."""
    p = state.params
    if state.digest != run_digest(cfg, g, features):
        raise DataFormatError(
            f"training state (layers={p.num_layers}, input_dim={p.input_dim}, "
            f"embed_dim={p.embed_dim}) comes from a different run: the config "
            "(apart from max_epochs), the training graph or the features "
            "differ")


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
    """MRR@10 of held-out edges (`evaluation.ranking_report`)."""
    return ranking_report(g, embed_all(g, features, params), val_edges,
                          (10,)).mrr[10]


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
        state = TrainState(params=params, adam=AdamState.zeros(params),
                           digest=run_digest(cfg, g, features))
    else:
        check_resumable(state, cfg, g, features)
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
            value, gs, gt = loss_grad(emb, batch, weights=cfg.term_weights,
                                      negative_form=cfg.negative_form)
            if not np.isfinite(value.total):
                raise NumericalError(
                    f"non-finite loss at epoch {epoch} batch {b}")
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
