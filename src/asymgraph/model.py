"""Dual-embedding GNN: forward pass and exact reverse-mode gradients.

Each product gets a source vector (product as query) and a target vector
(product as recommendation). Per layer, the source channel aggregates the
target representations of co-purchase out-neighbors plus the source
representations of co-view out-neighbors; the target channel mirrors that
over in-neighbors. One weight matrix per layer is shared across both
channels and both relation terms. Rows are L2-normalized after every
layer; all-zero rows (empty neighborhoods) are left untouched so isolated
nodes embed to zero instead of NaN.

Each layer transforms, then aggregates: relu(A @ (H @ W)), the usual GCN
order, so each input frontier is multiplied by W once and feeds both steps
that read it (its own channel's co-view, the other's co-purchase term).

Training runs `forward` over sampled computation blocks and keeps a tape
for `backward`, which consumes it: each layer's entries are freed once
backward has read them. Whole-catalogue inference (`embed_all`) is
layer-wise instead: each layer is computed once for every node straight
from the graph's CSR adjacencies, with no tape, through the same
per-layer step.
Cold start runs `forward` over full blocks, so all three share one order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import NumericalError
from .formats import read_binary, read_rows, write_binary, write_rows
from .graph import DirectedProductGraph, KeyMap
from .sampler import SOURCE, TARGET, ComputationBlocks

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

    def rows_of(self, nodes) -> np.ndarray:
        nodes = np.asarray(nodes, dtype=np.int64)
        idx = np.searchsorted(self.nodes, nodes)
        bad = (idx >= len(self.nodes)) | (self.nodes[np.minimum(idx, len(self.nodes) - 1)] != nodes)
        if bad.any():
            missing = np.unique(nodes[bad])[:5]
            raise KeyError(f"no embedding for nodes {missing.tolist()}")
        return idx


def _selection(ptr: np.ndarray, rows: np.ndarray, n_cols: int) -> sp.csr_matrix:
    # scipy keeps int32 indices where they fit; given them, it sets up faster
    idx = np.int32 if max(len(rows), n_cols) < 2 ** 31 else np.int64
    return sp.csr_matrix((np.ones(len(rows)), rows.astype(idx), ptr.astype(idx)),
                         shape=(len(ptr) - 1, n_cols))


@dataclass
class Tape:
    """What one forward pass keeps for its backward pass.

    H[l][channel] is level l's frontier: H[0] the gathered features, H[l]
    layer l's normalized output and layer l+1's input. steps[(channel,
    layer)] holds the selection matrices, ReLU masks and pre-normalization
    row norms; the products H @ W and the pre-activations are not kept.
    A tape is only valid for the weights it was recorded with, and for
    one `backward`, which consumes it layer by layer.
    """

    num_layers: int
    H: list
    steps: dict


def _layer(sel_cp, p_cp, sel_cv, p_cv, l: int, ch: str) -> tuple:
    """One (layer, channel) step over feeds already multiplied by the
    layer's weights: relu(sel_cp @ p_cp) + relu(sel_cv @ p_cv), rows
    normalized. Returns the ReLU masks, the pre-normalization row norms
    and the normalized output, in that order."""
    # ReLUs and the sum run in place, so at most one pre-activation
    # matrix is alive; the arithmetic is the same as out of place
    h = sel_cp @ p_cp
    on_cp = h > 0.0
    np.maximum(h, 0.0, out=h)
    pre_cv = sel_cv @ p_cv
    on_cv = pre_cv > 0.0
    h += np.maximum(pre_cv, 0.0, out=pre_cv)
    # np.linalg.norm's arithmetic for real rows, without its copy, with
    # h * h in pre_cv's dead buffer; a non-finite activation always gives
    # a non-finite row norm
    norms = np.sqrt(np.add.reduce(np.multiply(h, h, out=pre_cv), axis=1))
    if not np.isfinite(norms).all():
        raise NumericalError(f"non-finite activations or row norms in layer "
                             f"{l} ({ch} channel)")
    h /= np.where(norms > 0.0, norms, 1.0)[:, None]
    return on_cp, on_cv, norms, h


def _times(h: np.ndarray, w: np.ndarray) -> np.ndarray:
    """h @ w; 1 row runs as 2, as GEMV's bits differ from a GEMM row's."""
    return h @ w if len(h) != 1 else (np.repeat(h, 2, axis=0) @ w)[:1]


def forward(blocks: ComputationBlocks, features: np.ndarray,
            params: ModelParams) -> tuple[DualEmbeddings, Tape]:
    """Embeddings for the block seeds (rows align with blocks.seeds), plus
    the tape that `backward` needs for the same weights."""
    if params.num_layers != blocks.num_layers:
        raise ValueError(
            f"blocks have {blocks.num_layers} layers, params {params.num_layers}")
    if features.shape[1] != params.input_dim:
        raise ValueError(
            f"feature dim {features.shape[1]} != model input dim {params.input_dim}")
    H = [{ch: features[blocks.levels[0][ch].nodes] for ch in (SOURCE, TARGET)}]
    steps = {}
    for l in range(1, blocks.num_layers + 1):
        w = params.weights[l - 1]
        # each frontier is transformed once, for the two steps it feeds
        P = {ch: _times(H[l - 1][ch], w) for ch in (SOURCE, TARGET)}
        out = {}
        for ch in (SOURCE, TARGET):
            blk = blocks.levels[l][ch]
            p_cp, p_cv = P[TARGET if ch == SOURCE else SOURCE], P[ch]
            sel_cp = _selection(blk.cp_ptr, blk.cp_rows, p_cp.shape[0])
            sel_cv = _selection(blk.cv_ptr, blk.cv_rows, p_cv.shape[0])
            *step, out[ch] = _layer(sel_cp, p_cp, sel_cv, p_cv, l, ch)
            steps[(ch, l)] = (sel_cp, sel_cv, *step)
        H.append(out)
    L = blocks.num_layers
    emb = DualEmbeddings(nodes=blocks.seeds,
                         theta_s=H[L][SOURCE], theta_t=H[L][TARGET])
    return emb, Tape(num_layers=L, H=H, steps=steps)


def _unstep(tape: Tape, l: int, ch: str, g: np.ndarray) -> tuple:
    """Backward of `_layer` at (layer l, channel ch): pops the step's tape
    entry and its output y, and returns the gradients of the step's
    co-purchase and co-view feeds. g, the gradient w.r.t. y, is owned
    here and overwritten. y is scratch once read, except at the top
    level: that is the embeddings `forward` returned, left as they are."""
    sel_cp, sel_cv, on_cp, on_cv, norms = tape.steps.pop((ch, l))
    y = tape.H[l].pop(ch)
    if l == tape.num_layers:
        y = y.copy()
    nz = norms > 0.0
    y *= np.einsum("ij,ij->i", y, g)[:, None]
    g -= y
    g /= np.where(nz, norms, 1.0)[:, None]
    if not nz.all():
        g[~nz] = 0.0
    g_cp = sel_cp.T @ np.multiply(g, on_cp, out=y)
    del y, on_cp, sel_cp  # freed before the co-view product
    g *= on_cv
    return g_cp, sel_cv.T @ g


def backward(tape: Tape, params: ModelParams, loss_grad_s: np.ndarray,
             loss_grad_t: np.ndarray) -> list[np.ndarray]:
    """Gradients of a scalar loss w.r.t. every weight matrix.

    tape comes from `forward` with these same params; loss_grad_s /
    loss_grad_t are the loss gradients w.r.t. its seed output rows, and
    are left as they are.
    Normalization backpropagates through the standard projected Jacobian,
    with zero-norm rows contributing nothing; the ReLU subgradient at 0
    is 0. Each transformed feed P = H @ W sums the gradients of its two
    consumers; then W gets H.T @ gP and the layer below gP @ W.T.

    backward consumes the tape: top-down, it pops each layer's entries
    before it reads them, so a level is freed once its layer is done and
    a step holds the rest of the tape plus one layer's working set. The
    top level is the embeddings `forward` returned; it is freed only if
    the caller has dropped them. A consumed tape is refused.
    """
    if params.num_layers != tape.num_layers:
        raise ValueError(
            f"tape has {tape.num_layers} layers, params {params.num_layers}")
    if len(tape.steps) != 2 * tape.num_layers:
        raise ValueError("tape was already consumed by backward; run "
                         "forward again for another backward")
    L = tape.num_layers
    grads = [None] * L
    gH = {SOURCE: np.array(loss_grad_s, dtype=np.float64),
          TARGET: np.array(loss_grad_t, dtype=np.float64)}
    for l in range(L, 0, -1):
        # each transformed feed sums its two consumers' gradients: its
        # own channel's co-view term and the other's co-purchase term
        gP_t, gP_s = _unstep(tape, l, SOURCE, gH.pop(SOURCE))
        cp_s, cv_t = _unstep(tape, l, TARGET, gH.pop(TARGET))
        gP_s += cp_s
        gP_t += cv_t
        del cp_s, cv_t
        H = tape.H[l - 1]
        grads[l - 1] = H[SOURCE].T @ gP_s + H[TARGET].T @ gP_t
        if l > 1:  # input features are constants
            w = params.weights[l - 1]
            gH = {SOURCE: gP_s @ w.T, TARGET: gP_t @ w.T}
        del gP_s, gP_t
    tape.H.clear()
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
        P_s = S @ w
        P_t = P_s if T is S else T @ w
        # source pulls cp out-neighbors' targets, target pulls cp
        # in-neighbors' sources; co-view keeps the channel
        S, T = (_layer(cp_out, P_t, cv, P_s, l, SOURCE)[-1],
                _layer(cp_in, P_s, cv, P_t, l, TARGET)[-1])
    return DualEmbeddings(nodes=np.arange(n), theta_s=S, theta_t=T)


# ----------------------------------------------------------------------
# Persistence
# ----------------------------------------------------------------------

def save_checkpoint(params: ModelParams, path) -> None:
    """Binary checkpoint (see `formats`): one stack of weight matrices."""
    write_binary(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, [params.weights])


def load_checkpoint(path) -> ModelParams:
    (weights,), _ = read_binary(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, 1)
    return ModelParams(weights)


def dump_embeddings(emb: DualEmbeddings, key_map: KeyMap, path) -> None:
    """Text rows (see `formats`): `<key>\\tS:<floats>\\tT:<floats>` per
    product."""
    write_rows(path, [key_map.key_of(int(u)) for u in emb.nodes],
               [emb.theta_s, emb.theta_t], ("S:", "T:"))


def load_embeddings(path) -> tuple[DualEmbeddings, KeyMap]:
    """Read a `dump_embeddings` file; malformed input raises
    DataFormatError naming the line."""
    keys, (theta_s, theta_t) = read_rows(path, ("S:", "T:"))
    return DualEmbeddings(np.arange(len(keys)), theta_s, theta_t), KeyMap(keys)
