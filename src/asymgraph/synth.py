"""Deterministic synthetic marketplace generator.

Each category holds main products and accessories, both chopped into
co-view cliques. Cliques are feature-coherent (per-clique centroid on top
of the category centroid plus Gaussian noise), and every main-product
clique is paired with an accessory clique: mains buy accessories of their
bundle with probability cp_edge_prob, a slice of which get a reciprocal
edge. Feature similarity therefore predicts purchase behavior, which is
the premise cold-start attachment and the co-view transitivity signal
rely on.

Ground truth records the planted direct pairs and the transitive pairs
the selection-bias task probes: `graph.transitive_pairs` over every
co-purchase edge (main -> accessory -> co-view sibling of that accessory,
and the same through a reciprocal edge).

Stream contract: one generator, `derive_rng(seed, STREAM_SYNTH)`, makes
every draw, category by category, in this order:

1. the centroid, `normal(size=feature_dim)`;
2. `permutation` of the category's mains, then of its accessories; each
   shuffled run is cut into cliques of `cv_clique_size`;
3. one normal block: for each clique, the mains' cliques first, its
   offset row, then one noise row per member (`normal(scale=noise_std)`
   is `0 + noise_std * z`);
4. the purchase uniforms: for each main clique, each of its mains and
   each accessory of its bundle, one uniform that buys with
   `cp_edge_prob`; after a purchase, one more that reciprocates with
   `reciprocal_prob`.

Every corpus, and every benchmark that reads one, depends on this order;
`tests/reference.py` keeps it as the per-pair loop that drew it first.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .formats import write_pairs
from .graph import KeyMap, build_graph, dump_feature_file, transitive_pairs
from .util import STREAM_SYNTH, derive_rng

# Scale of the per-clique centroid offset relative to the unit category
# centroid; large enough that feature neighbors are clique-mates.
CLIQUE_OFFSET = 0.5


@dataclass
class SynthConfig:
    num_categories: int = 20
    products_per_category: int = 100
    accessory_fraction: float = 0.3
    cp_edge_prob: float = 0.75
    reciprocal_prob: float = 0.2
    cv_clique_size: int = 6
    feature_dim: int = 32
    noise_std: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name in ("accessory_fraction", "cp_edge_prob", "reciprocal_prob"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {val}")
        for name in ("num_categories", "products_per_category",
                     "cv_clique_size", "feature_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class SynthData:
    key_map: KeyMap
    features: np.ndarray
    cp_pairs: np.ndarray            # directed (u, v) ids
    cv_pairs: np.ndarray            # unordered (u, v) ids, u < v
    direct_truth: np.ndarray        # planted main -> accessory pairs
    transitive_truth: np.ndarray    # main -> accessory-sibling pairs


def _chunks(lo: int, hi: int, size: int) -> list[np.ndarray]:
    """Positions lo..hi-1 cut into runs of `size`; used for bundles even
    when too small to carry co-view edges."""
    return [np.arange(i, min(i + size, hi)) for i in range(lo, hi, size)]


def _purchases(rng, trials: int, cfg: SynthConfig):
    """Which of `trials` main -> accessory trials buy, and which purchases
    are reciprocated, as one uniform per trial plus one more right after
    each purchase draws them. Returns (bought per trial, reciprocated per
    purchase) and leaves `rng` where those draws end."""
    if trials == 0:
        return np.zeros(0, dtype=bool), np.zeros(0, dtype=bool)
    state = rng.bit_generator.state
    u = rng.random(2 * trials)      # enough even if every trial buys
    hit = u < cfg.cp_edge_prob
    # A draw is a trial's unless the draw before it is a buying trial's:
    # after a miss, trials and reciprocal draws alternate along a run of
    # hits, so a draw is a trial's iff the run of hits before it is even.
    i = np.arange(2 * trials)
    last_miss = np.maximum.accumulate(np.where(hit, -1, i))
    is_trial = np.ones(2 * trials, dtype=bool)
    is_trial[1:] = (i[1:] - 1 - last_miss[:-1]) % 2 == 0
    at = np.flatnonzero(is_trial)[:trials]
    bought = hit[at]
    recip = u[at[bought] + 1] < cfg.reciprocal_prob
    # Redraw exactly the used count from the saved state: that keeps the
    # PCG64 buffered 32-bit half `permutation` reads (advance() drops it).
    rng.bit_generator.state = state
    rng.random(trials + int(bought.sum()))
    return bought, recip


def generate(cfg: SynthConfig) -> SynthData:
    rng = derive_rng(cfg.seed, STREAM_SYNTH)
    ppc, d = cfg.products_per_category, cfg.feature_dim
    n_acc = int(round(ppc * cfg.accessory_fraction))
    n_main = ppc - n_acc
    num_cats = cfg.num_categories
    num_nodes = num_cats * ppc
    suffixes = [f"m{j:03d}" for j in range(n_main)] \
        + [f"a{j:03d}" for j in range(n_acc)]
    key_map = KeyMap(f"c{cat:02d}{s}" for cat in range(num_cats)
                     for s in suffixes)

    # Every category has the same layout over positions in its shuffled
    # order (mains, then accessories): cliques, the draw block and the
    # trials. Only which product holds each position differs.
    main_groups = _chunks(0, n_main, cfg.cv_clique_size)
    acc_groups = _chunks(n_main, ppc, cfg.cv_clique_size)
    groups = main_groups + acc_groups
    clique = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    # A category's normal block holds each clique's offset row, then its
    # noise rows.
    offset_row = np.arange(len(groups)) + [g[0] for g in groups]
    noise_row = clique + 1 + np.arange(ppc)
    # (first, second) position of each co-view pair within a clique
    pair_at = np.concatenate(
        [g[np.stack(np.triu_indices(len(g), 1))] for g in groups], axis=1)
    # Each main clique buys from its paired accessory bundle: one trial
    # per (main, accessory) of it, mains outer.
    trials = [(m, a) for gi, group in enumerate(main_groups) if acc_groups
              for m in group for a in acc_groups[gi % len(acc_groups)]]
    buyer_at, item_at = np.array(trials, dtype=np.int64).reshape(-1, 2).T

    centroids = np.empty((num_cats, d))
    orders = np.empty((num_cats, ppc), dtype=np.int64)
    draws = np.empty((num_cats, len(groups) + ppc, d))
    bought = np.empty((num_cats, len(buyer_at)), dtype=bool)
    recips = []
    for cat in range(num_cats):
        base = cat * ppc
        centroid = rng.normal(size=d)
        centroids[cat] = centroid / np.linalg.norm(centroid)
        orders[cat, :n_main] = rng.permutation(np.arange(base, base + n_main))
        orders[cat, n_main:] = rng.permutation(np.arange(base + n_main,
                                                         base + ppc))
        draws[cat] = rng.normal(size=draws.shape[1:])
        bought[cat], recip = _purchases(rng, len(buyer_at), cfg)
        recips.append(recip)

    # One BLAS dot per clique, as np.linalg.norm takes it: a row-wise
    # norm rounds differently.
    offsets = draws[:, offset_row]
    norms = np.sqrt([o.dot(o) for o in offsets.reshape(-1, d)])
    offsets *= (CLIQUE_OFFSET / norms).reshape(num_cats, -1, 1)
    rows = draws[:, noise_row]
    rows *= cfg.noise_std
    rows += 0.0                 # normal(scale=s) draws 0 + s*z
    rows += (centroids[:, None, :] + offsets)[:, clique]
    features = np.empty((num_nodes, d))
    features[orders.ravel()] = rows.reshape(-1, d)

    lo, hi = (orders[:, p].ravel() for p in pair_at)
    cv_keys = np.sort(np.minimum(lo, hi) * num_nodes + np.maximum(lo, hi))
    cv_arr = np.stack([cv_keys // num_nodes, cv_keys % num_nodes], axis=1)

    direct_arr = np.stack([orders[:, buyer_at][bought],
                           orders[:, item_at][bought]], axis=1)
    # each purchase (m, a), followed by (a, m) where it is reciprocated
    recip = np.concatenate(recips)
    row = np.arange(len(recip)) + np.cumsum(recip) - recip
    cp_arr = np.empty((len(recip) + recip.sum(), 2), dtype=np.int64)
    cp_arr[row] = direct_arr
    cp_arr[row[recip] + 1] = direct_arr[recip, ::-1]
    trans_arr = transitive_pairs(build_graph(cp_arr, cv_arr, num_nodes),
                                 cp_arr)
    return SynthData(key_map=key_map, features=features,
                     cp_pairs=cp_arr, cv_pairs=cv_arr,
                     direct_truth=direct_arr, transitive_truth=trans_arr)


def _sorted_pairs(pairs: np.ndarray) -> np.ndarray:
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]


def write_corpus(data: SynthData, out_dir) -> dict[str, Path]:
    """Write edges.tsv, features.tsv and ground_truth.tsv; byte-stable
    for a fixed config."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"edges": out / "edges.tsv",
             "features": out / "features.tsv",
             "ground_truth": out / "ground_truth.tsv"}
    km = data.key_map
    write_pairs(paths["edges"], km, [(_sorted_pairs(data.cp_pairs), "cp"),
                                     (_sorted_pairs(data.cv_pairs), "cv")])
    dump_feature_file(data.features, km, paths["features"])
    write_pairs(paths["ground_truth"], km,
                [(_sorted_pairs(data.direct_truth), "direct"),
                 (_sorted_pairs(data.transitive_truth), "transitive")])
    return paths
