"""Layer-wise neighbor sampling for the dual-channel forward pass.

For a batch of seed nodes we materialize, layer by layer, the frontier
each channel needs:

  * source channel of u pulls from cp out-neighbors (their target channel)
    and cv out-neighbors (their source channel);
  * target channel of u pulls from cp in-neighbors (their source channel)
    and cv in-neighbors (their target channel).

Per (relation, direction) a node keeps all neighbors when their count is
within the layer cap, otherwise a uniform sample without replacement of
exactly the cap. A whole frontier is read from the CSR arrays at once:
every neighbor of an over-cap row gets one uniform random key, and the
row keeps the neighbors whose key ranks below the cap within the row, in
their original sorted order. Rows within the cap, and full-neighborhood
blocks, draw no randomness. Everything is deterministic given the seed.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .graph import DirectedProductGraph, has_cp_edges
from .util import derive_rng

SOURCE = "s"
TARGET = "t"


@dataclass
class LayerBlock:
    """Sampled sub-adjacency feeding one (layer, channel) frontier.

    nodes[i]'s sampled neighbors sit in flat arrays between ptr[i] and
    ptr[i+1]; *_rows index directly into the previous layer's value matrix
    for the feeding channel (cp feeds the opposite channel, cv the same).
    """

    nodes: np.ndarray
    cp_ptr: np.ndarray
    cp_nbrs: np.ndarray
    cp_rows: np.ndarray
    cv_ptr: np.ndarray
    cv_nbrs: np.ndarray
    cv_rows: np.ndarray


@dataclass
class ComputationBlocks:
    seeds: np.ndarray  # sorted unique; output rows align with this
    num_layers: int
    # levels[0] holds input frontiers (adjacency arrays empty);
    # levels[l][channel] for l in 1..num_layers.
    levels: list[dict[str, LayerBlock]]


def _empty_block(nodes: np.ndarray) -> LayerBlock:
    z = np.zeros(len(nodes) + 1, dtype=np.int64)
    e = np.empty(0, dtype=np.int64)
    return LayerBlock(nodes, z, e, e, z.copy(), e, e)


def _sample_rows(adj, nodes, cap, rng) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated sampled neighbor lists plus CSR offsets."""
    deg, nbrs = adj.rows(nodes)
    ptr = np.zeros(len(nodes) + 1, dtype=np.int64)
    np.cumsum(deg, out=ptr[1:])
    if cap is not None and (deg > cap).any():
        over = deg > cap
        in_over = np.repeat(over, deg)
        over_deg = deg[over]
        keys = rng.random(int(over_deg.sum()))
        row = np.repeat(np.arange(len(over_deg)), over_deg)
        order = np.lexsort((keys, row))
        row_start = np.repeat(np.cumsum(over_deg) - over_deg, over_deg)
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order)) - row_start
        keep = np.ones(len(nbrs), dtype=bool)
        keep[in_over] = rank < cap
        nbrs = nbrs[keep]
        np.cumsum(np.minimum(deg, cap), out=ptr[1:])
    return ptr, nbrs


def _sorted_ids(num_nodes: int, *ids: np.ndarray) -> np.ndarray:
    """Sorted distinct ids of the given arrays, via a catalog bitmap."""
    hit = np.zeros(num_nodes, dtype=bool)
    for part in ids:
        hit[part] = True
    return np.flatnonzero(hit)


def sample_blocks(g: DirectedProductGraph, seeds, fanouts,
                  rng_seed: int | None = 0) -> ComputationBlocks:
    """Build the per-layer computation blocks for both channels.

    fanouts lists per-layer caps outermost first (seed-adjacent hop
    first), one per layer; a cap of None keeps full neighborhoods. With
    all caps slack no randomness is drawn, so full-fanout blocks are
    seed-independent.
    """
    if isinstance(fanouts, int):
        raise TypeError("fanouts must be a sequence of per-layer caps")
    caps = list(fanouts)
    num_layers = len(caps)
    if num_layers < 1:
        raise ValueError("need at least one layer")
    if any(c is not None and c < 1 for c in caps):
        raise ValueError(f"fanout caps must be >= 1, got {caps}")
    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    if len(seeds) == 0:
        raise ValueError("seeds must be non-empty")
    if seeds[0] < 0 or seeds[-1] >= g.num_nodes:
        raise IndexError("seed id out of range")
    rng = derive_rng(rng_seed) if rng_seed is not None else None

    levels: list[dict[str, LayerBlock] | None] = [None] * (num_layers + 1)
    need = {SOURCE: seeds, TARGET: seeds}
    for l in range(num_layers, 0, -1):
        cap = caps[num_layers - l]
        s_nodes, t_nodes = need[SOURCE], need[TARGET]
        s_cp_ptr, s_cp = _sample_rows(g.cp_out, s_nodes, cap, rng)
        s_cv_ptr, s_cv = _sample_rows(g.cv_out, s_nodes, cap, rng)
        t_cp_ptr, t_cp = _sample_rows(g.cp_in, t_nodes, cap, rng)
        t_cv_ptr, t_cv = _sample_rows(g.cv_in, t_nodes, cap, rng)
        levels[l] = {
            SOURCE: LayerBlock(s_nodes, s_cp_ptr, s_cp, None, s_cv_ptr, s_cv, None),
            TARGET: LayerBlock(t_nodes, t_cp_ptr, t_cp, None, t_cv_ptr, t_cv, None),
        }
        need = {
            # cv keeps the channel, cp flips it
            SOURCE: _sorted_ids(g.num_nodes, s_cv, t_cp),
            TARGET: _sorted_ids(g.num_nodes, s_cp, t_cv),
        }
    levels[0] = {ch: _empty_block(need[ch]) for ch in (SOURCE, TARGET)}

    # Resolve neighbor ids to row indices in the feeding frontier; every
    # neighbor id is in that frontier, so stale entries are never read.
    row_of = np.empty(g.num_nodes, dtype=np.int64)
    for l in range(1, num_layers + 1):
        below = levels[l - 1]
        for ch in (SOURCE, TARGET):
            blk = levels[l][ch]
            other = TARGET if ch == SOURCE else SOURCE
            row_of[below[other].nodes] = np.arange(len(below[other].nodes))
            blk.cp_rows = row_of[blk.cp_nbrs]
            row_of[below[ch].nodes] = np.arange(len(below[ch].nodes))
            blk.cv_rows = row_of[blk.cv_nbrs]
    return ComputationBlocks(seeds=seeds, num_layers=num_layers, levels=levels)


def full_blocks(g: DirectedProductGraph, seeds, num_layers: int) -> ComputationBlocks:
    """Unsampled blocks (every neighbor kept at every layer)."""
    return sample_blocks(g, seeds, [None] * num_layers, rng_seed=None)


def sample_negatives(g: DirectedProductGraph, pos_edges, n_k: int,
                     rng_seed: int = 0) -> np.ndarray:
    """Uniform negatives per positive co-purchase edge.

    For each positive (u, v) draws n_k distinct ids z uniformly from the
    catalog, rejecting u itself and u's known co-purchase out-neighbors.
    If fewer legal ids than n_k exist the draw falls back to sampling with
    replacement and warns.

    Rows are drawn together: each pending row gets a block of uniform ids,
    illegal ids and repeats within the row are rejected, and a row with
    at least n_k survivors keeps the first n_k; the rest are redrawn.

    Returns an (len(pos_edges), n_k) id array.
    """
    if n_k < 1:
        raise ValueError("n_k must be >= 1")
    pos = np.asarray(pos_edges, dtype=np.int64).reshape(-1, 2)
    rng = derive_rng(rng_seed)
    n = g.num_nodes
    out = np.empty((len(pos), n_k), dtype=np.int64)
    u_all = pos[:, 0]
    out_deg = g.cp_out.indptr[u_all + 1] - g.cp_out.indptr[u_all]
    short = n - 1 - out_deg < n_k
    for i in np.flatnonzero(short):
        u = u_all[i]
        excl = np.unique(np.concatenate([[u], g.cp_out.neighbors(u)]))
        legal = n - len(excl)
        warnings.warn(
            f"node {u}: only {legal} legal negatives for n_k={n_k}; "
            "sampling with replacement", stacklevel=2)
        allowed = np.setdiff1d(np.arange(n), excl)
        if len(allowed) == 0:
            # every non-self id is a known positive; z != u is the one
            # hard requirement, so fall back to that alone
            allowed = np.setdiff1d(np.arange(n), np.asarray([u]))
        if len(allowed) == 0:
            raise ValueError(
                f"cannot sample negatives: node {u} is the whole catalog")
        out[i] = rng.choice(allowed, size=n_k, replace=True)

    pending = np.flatnonzero(~short)
    width = 2 * n_k
    while len(pending):
        u = u_all[pending, None]
        draws = rng.integers(0, n, size=(len(pending), width))
        ok = (draws != u) & ~has_cp_edges(g, u, draws)
        # a stable sort puts each id's first column first among its copies
        order = np.argsort(draws, axis=1, kind="stable")
        srt = np.take_along_axis(draws, order, axis=1)
        repeat = np.zeros_like(ok)
        np.put_along_axis(repeat, order[:, 1:], srt[:, 1:] == srt[:, :-1], axis=1)
        ok &= ~repeat
        done = ok.sum(axis=1) >= n_k
        first = np.argsort(~ok[done], axis=1, kind="stable")[:, :n_k]
        out[pending[done]] = np.take_along_axis(draws[done], first, axis=1)
        pending = pending[~done]
        # rows with few legal ids rarely fill a block; widen it so they
        # still finish in a handful of rounds
        width *= 2
    return out
