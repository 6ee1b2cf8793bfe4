"""Dual-embedding GNN: forward pass and exact reverse-mode gradients.

Each product gets a source vector (product as query) and a target vector
(product as recommendation). Per layer, the source channel aggregates the
target representations of co-purchase out-neighbors plus the source
representations of co-view out-neighbors; the target channel mirrors that
over in-neighbors. One weight matrix per layer is shared across both
channels and both relation terms. Rows are L2-normalized after every
layer; all-zero rows (empty neighborhoods) are left untouched so isolated
nodes embed to zero instead of NaN.

Training runs `forward` over sampled computation blocks and keeps a tape
for `backward`. Whole-catalogue inference (`embed_all`) is layer-wise
instead: each layer is computed once for every node straight from the
graph's CSR adjacencies, with no tape, through the same per-layer step.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DataFormatError, NumericalError
from .graph import DirectedProductGraph, KeyMap
from .sampler import SOURCE, TARGET, ComputationBlocks
from .util import atomic_write, fmt_float

CHECKPOINT_MAGIC = b"ASYMGEMB"
CHECKPOINT_VERSION = 1


@dataclass
class ModelParams:
    """Per-layer weight matrices; weights[0] maps inputs, the rest hidden."""

    weights: list[np.ndarray]

    def __post_init__(self):
        if not self.weights:
            raise ValueError("need at least one layer")
        d_h = self.weights[0].shape[1]
        for l, w in enumerate(self.weights):
            if w.ndim != 2:
                raise ValueError(f"weight {l} is not a matrix")
            expect_in = self.weights[0].shape[0] if l == 0 else d_h
            if w.shape != (expect_in, d_h):
                raise ValueError(
                    f"weight {l} has shape {w.shape}, expected ({expect_in}, {d_h})")
            if not np.isfinite(w).all():
                raise ValueError(f"weight {l} has non-finite entries")

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[0]

    @property
    def embed_dim(self) -> int:
        return self.weights[0].shape[1]

    def copy(self) -> "ModelParams":
        return ModelParams([w.copy() for w in self.weights])

    @classmethod
    def init(cls, input_dim: int, embed_dim: int, num_layers: int,
             rng: np.random.Generator) -> "ModelParams":
        """Glorot-uniform initialization."""
        weights = []
        for l in range(num_layers):
            d_in = input_dim if l == 0 else embed_dim
            limit = np.sqrt(6.0 / (d_in + embed_dim))
            weights.append(rng.uniform(-limit, limit, size=(d_in, embed_dim)))
        return cls(weights)


@dataclass
class DualEmbeddings:
    """Source/target embedding rows for `nodes` (sorted ids)."""

    nodes: np.ndarray
    theta_s: np.ndarray
    theta_t: np.ndarray

    def row_of(self, node: int) -> int:
        i = int(np.searchsorted(self.nodes, node))
        if i >= len(self.nodes) or self.nodes[i] != node:
            raise KeyError(f"no embedding for node {node}")
        return i

    def rows_of(self, nodes) -> np.ndarray:
        nodes = np.asarray(nodes, dtype=np.int64)
        idx = np.searchsorted(self.nodes, nodes)
        bad = (idx >= len(self.nodes)) | (self.nodes[np.minimum(idx, len(self.nodes) - 1)] != nodes)
        if bad.any():
            missing = np.unique(nodes[bad])[:5]
            raise KeyError(f"no embedding for nodes {missing.tolist()}")
        return idx


def _selection(ptr: np.ndarray, rows: np.ndarray, n_cols: int) -> sp.csr_matrix:
    data = np.ones(len(rows), dtype=np.float64)
    return sp.csr_matrix((data, rows, ptr), shape=(len(ptr) - 1, n_cols))


@dataclass
class Tape:
    """What one forward pass keeps for its backward pass.

    steps[(channel, layer)] holds the selection matrices, the summed
    neighbor inputs, the ReLU masks, the pre-normalization row norms and
    the normalized output of that channel's layer. A tape is only valid
    for the weights it was recorded with.
    """

    num_layers: int
    steps: dict


def _layer(sel_cp, feed_cp, sel_cv, feed_cv, w: np.ndarray, l: int,
           ch: str) -> tuple:
    """One (layer, channel) step: relu(sel_cp @ feed_cp @ w) +
    relu(sel_cv @ feed_cv @ w), rows normalized. Returns the summed
    neighbor inputs, the ReLU masks, the pre-normalization row norms and
    the normalized output, in that order."""
    sum_cp = sel_cp @ feed_cp
    sum_cv = sel_cv @ feed_cv
    # ReLUs and the sum run in place, so at most one pre-activation
    # matrix is alive; the arithmetic is the same as out of place
    h = sum_cp @ w
    on_cp = h > 0.0
    np.maximum(h, 0.0, out=h)
    pre_cv = sum_cv @ w
    on_cv = pre_cv > 0.0
    h += np.maximum(pre_cv, 0.0, out=pre_cv)
    if not np.isfinite(h).all():
        raise NumericalError(
            f"non-finite activations in layer {l} ({ch} channel)")
    norms = np.linalg.norm(h, axis=1)
    if not np.isfinite(norms).all():
        raise NumericalError(
            f"non-finite row norms in layer {l} ({ch} channel)")
    h /= np.where(norms > 0.0, norms, 1.0)[:, None]
    return sum_cp, sum_cv, on_cp, on_cv, norms, h


def _forward_cached(blocks: ComputationBlocks, features: np.ndarray,
                    params: ModelParams) -> tuple[DualEmbeddings, Tape]:
    """Run the layered aggregation, keeping intermediates for backward."""
    if params.num_layers != blocks.num_layers:
        raise ValueError(
            f"blocks have {blocks.num_layers} layers, params {params.num_layers}")
    if features.shape[1] != params.input_dim:
        raise ValueError(
            f"feature dim {features.shape[1]} != model input dim {params.input_dim}")
    H = {}
    for ch in (SOURCE, TARGET):
        H[(ch, 0)] = features[blocks.levels[0][ch].nodes]
    steps = {}
    for l in range(1, blocks.num_layers + 1):
        w = params.weights[l - 1]
        for ch in (SOURCE, TARGET):
            blk = blocks.levels[l][ch]
            other = TARGET if ch == SOURCE else SOURCE
            feed_cp = H[(other, l - 1)]
            feed_cv = H[(ch, l - 1)]
            sel_cp = _selection(blk.cp_ptr, blk.cp_rows, feed_cp.shape[0])
            sel_cv = _selection(blk.cv_ptr, blk.cv_rows, feed_cv.shape[0])
            step = _layer(sel_cp, feed_cp, sel_cv, feed_cv, w, l, ch)
            H[(ch, l)] = step[-1]
            steps[(ch, l)] = (sel_cp, sel_cv) + step
    L = blocks.num_layers
    emb = DualEmbeddings(nodes=blocks.seeds,
                         theta_s=H[(SOURCE, L)], theta_t=H[(TARGET, L)])
    return emb, Tape(num_layers=L, steps=steps)


def forward(blocks: ComputationBlocks, features: np.ndarray,
            params: ModelParams) -> tuple[DualEmbeddings, Tape]:
    """Embeddings for the block seeds (rows align with blocks.seeds), plus
    the tape that `backward` needs for the same weights."""
    return _forward_cached(blocks, features, params)


def backward(tape: Tape, params: ModelParams, loss_grad_s: np.ndarray,
             loss_grad_t: np.ndarray) -> list[np.ndarray]:
    """Gradients of a scalar loss w.r.t. every weight matrix.

    tape comes from `forward` with these same params; loss_grad_s /
    loss_grad_t are the loss gradients w.r.t. its seed output rows.
    Normalization backpropagates through the standard projected Jacobian,
    with zero-norm rows contributing nothing; the ReLU subgradient at 0
    is 0. Shared weights accumulate across channels and relation terms.
    """
    if params.num_layers != tape.num_layers:
        raise ValueError(
            f"tape has {tape.num_layers} layers, params {params.num_layers}")
    L = tape.num_layers
    grads = [np.zeros_like(w) for w in params.weights]
    gH = {(SOURCE, L): np.array(loss_grad_s, dtype=np.float64),
          (TARGET, L): np.array(loss_grad_t, dtype=np.float64)}
    for l in range(L, 0, -1):
        w = params.weights[l - 1]
        for ch in (SOURCE, TARGET):
            g_out = gH.pop((ch, l), None)
            if g_out is None:
                continue
            sel_cp, sel_cv, sum_cp, sum_cv, on_cp, on_cv, norms, y = \
                tape.steps[(ch, l)]
            nz = norms > 0.0
            dot = np.sum(y * g_out, axis=1, keepdims=True)
            g_pre = g_out - y * dot
            g_pre /= np.where(nz, norms, 1.0)[:, None]
            g_pre[~nz] = 0.0
            g_cp = g_pre * on_cp
            g_cv = g_pre * on_cv
            grads[l - 1] += sum_cp.T @ g_cp + sum_cv.T @ g_cv
            if l == 1:
                continue  # input features are constants
            other = TARGET if ch == SOURCE else SOURCE
            for key, sel, g_sum in (((other, l - 1), sel_cp, g_cp @ w.T),
                                    ((ch, l - 1), sel_cv, g_cv @ w.T)):
                contrib = sel.T @ g_sum
                if key in gH:
                    gH[key] = gH[key] + contrib
                else:
                    gH[key] = contrib
    for l, g in enumerate(grads):
        if not np.isfinite(g).all():
            raise NumericalError(f"non-finite gradient for weight {l}")
    return grads


def embed_all(g: DirectedProductGraph, features: np.ndarray,
              params: ModelParams) -> DualEmbeddings:
    """Embeddings for every product, row order = dense node ids.

    Inference is layer-wise over the whole graph: each layer is computed
    once for every node from the graph's own CSR adjacencies, and only the
    previous layer is kept, so no tape is recorded. Neighborhoods are
    full (unsampled), so the result is deterministic. It equals `forward`
    over full blocks seeded with every node, up to BLAS blocking in the
    last ulp.
    """
    n = g.num_nodes
    if features.shape != (n, params.input_dim):
        raise ValueError(
            f"features have shape {features.shape}, expected "
            f"({n}, {params.input_dim})")
    cp_out = _selection(g.cp_out.indptr, g.cp_out.indices, n)
    cp_in = _selection(g.cp_in.indptr, g.cp_in.indices, n)
    cv = _selection(g.cv_out.indptr, g.cv_out.indices, n)
    S = T = features
    for l, w in enumerate(params.weights, start=1):
        # source pulls cp out-neighbors' targets, target pulls cp
        # in-neighbors' sources; co-view keeps the channel
        S, T = (_layer(cp_out, T, cv, S, w, l, SOURCE)[-1],
                _layer(cp_in, S, cv, T, w, l, TARGET)[-1])
    return DualEmbeddings(nodes=np.arange(n), theta_s=S, theta_t=T)


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------

def save_checkpoint(params: ModelParams, path) -> None:
    """Binary checkpoint: magic, version, dims, then little-endian float64
    weight matrices in row-major order. Written atomically."""
    with atomic_write(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<IIII", CHECKPOINT_VERSION, params.num_layers,
                            params.input_dim, params.embed_dim))
        for w in params.weights:
            f.write(np.ascontiguousarray(w, dtype="<f8").tobytes())


def load_checkpoint(path) -> ModelParams:
    with open(path, "rb") as f:
        magic = f.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise DataFormatError(f"{path}: bad checkpoint magic {magic!r}")
        header = f.read(16)
        if len(header) != 16:
            raise DataFormatError(f"{path}: truncated checkpoint header")
        version, L, d_in, d_h = struct.unpack("<IIII", header)
        if version != CHECKPOINT_VERSION:
            raise DataFormatError(
                f"{path}: unsupported checkpoint version {version}")
        weights = []
        for l in range(L):
            rows = d_in if l == 0 else d_h
            raw = f.read(rows * d_h * 8)
            if len(raw) != rows * d_h * 8:
                raise DataFormatError(f"{path}: truncated weight {l}")
            weights.append(np.frombuffer(raw, dtype="<f8").reshape(rows, d_h).copy())
        if f.read(1):
            raise DataFormatError(f"{path}: trailing bytes after weights")
    return ModelParams(weights)


def dump_embeddings(emb: DualEmbeddings, key_map: KeyMap, path) -> None:
    """Text dump: header `<num_nodes>\\t<dim>`, then one line per product
    `<key>\\tS:<floats>\\tT:<floats>` with comma-separated values.
    Written atomically."""
    n, d = emb.theta_s.shape
    with atomic_write(path) as f:
        f.write(f"{n}\t{d}\n")
        for i, node in enumerate(emb.nodes):
            s = ",".join(fmt_float(x) for x in emb.theta_s[i])
            t = ",".join(fmt_float(x) for x in emb.theta_t[i])
            f.write(f"{key_map.key_of(int(node))}\tS:{s}\tT:{t}\n")


def load_embeddings(path) -> tuple[DualEmbeddings, KeyMap]:
    """Read a `dump_embeddings` file. Malformed input (bad header, ragged
    or non-numeric rows, non-finite values, duplicate keys, a row count
    that disagrees with the header) raises DataFormatError naming the
    line."""
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().rstrip("\n").split("\t")
        try:
            n, d = map(int, header)
        except ValueError:
            n = d = -1
        if n < 0 or d < 0:
            raise DataFormatError(f"{path}: bad embedding header on line 1")
        km = KeyMap()
        theta_s = np.empty((n, d))
        theta_t = np.empty((n, d))
        count = 0
        for lineno, line in enumerate(f, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3 or not parts[1].startswith("S:") \
                    or not parts[2].startswith("T:"):
                raise DataFormatError(f"{path}: bad embedding line {lineno}")
            if count >= n:
                raise DataFormatError(
                    f"{path}: line {lineno} is beyond the {n} rows the "
                    f"header declares")
            if parts[0] in km:
                raise DataFormatError(
                    f"{path}: duplicate key {parts[0]!r} on line {lineno}")
            try:
                s = np.array(parts[1][2:].split(","), dtype=np.float64)
                t = np.array(parts[2][2:].split(","), dtype=np.float64)
            except ValueError:
                raise DataFormatError(
                    f"{path}: bad floats on line {lineno}") from None
            if len(s) != d or len(t) != d:
                raise DataFormatError(
                    f"{path}: line {lineno} has {len(s)} S and {len(t)} T "
                    f"values, expected {d}")
            if not (np.isfinite(s).all() and np.isfinite(t).all()):
                raise DataFormatError(
                    f"{path}: non-finite value on line {lineno}")
            km.add(parts[0])
            theta_s[count] = s
            theta_t[count] = t
            count += 1
        if count != n:
            raise DataFormatError(
                f"{path}: header declares {n} rows, found {count}")
    emb = DualEmbeddings(nodes=np.arange(n), theta_s=theta_s, theta_t=theta_t)
    return emb, km
