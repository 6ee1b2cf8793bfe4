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


def _groups(members: np.ndarray, size: int, rng) -> list[np.ndarray]:
    """Shuffled chunks of `size`; used for bundles even when too small
    to carry co-view edges."""
    order = rng.permutation(members)
    return [order[i:i + size] for i in range(0, len(order), size)]


def generate(cfg: SynthConfig) -> SynthData:
    rng = derive_rng(cfg.seed, STREAM_SYNTH)
    n_acc = int(round(cfg.products_per_category * cfg.accessory_fraction))
    n_main = cfg.products_per_category - n_acc
    num_nodes = cfg.num_categories * cfg.products_per_category

    key_map = KeyMap()
    features = np.empty((num_nodes, cfg.feature_dim))
    cp: list[tuple[int, int]] = []
    cv: list[tuple[int, int]] = []
    direct: list[tuple[int, int]] = []

    for cat in range(cfg.num_categories):
        base = cat * cfg.products_per_category
        mains = np.arange(base, base + n_main)
        accs = np.arange(base + n_main, base + cfg.products_per_category)
        for i in mains:
            key_map.add(f"c{cat:02d}m{i - base:03d}")
        for i in accs:
            key_map.add(f"c{cat:02d}a{i - base - n_main:03d}")
        centroid = rng.normal(size=cfg.feature_dim)
        centroid /= np.linalg.norm(centroid)

        main_groups = _groups(mains, cfg.cv_clique_size, rng)
        acc_groups = _groups(accs, cfg.cv_clique_size, rng)

        for group in main_groups + acc_groups:
            offset = rng.normal(size=cfg.feature_dim)
            offset *= CLIQUE_OFFSET / np.linalg.norm(offset)
            noise = rng.normal(scale=cfg.noise_std,
                               size=(len(group), cfg.feature_dim))
            features[group] = centroid + offset + noise
            if len(group) >= 2:
                srt = np.sort(group)
                for i in range(len(srt)):
                    for j in range(i + 1, len(srt)):
                        cv.append((int(srt[i]), int(srt[j])))

        # Each main clique buys from its paired accessory bundle.
        for gi, group in enumerate(main_groups):
            if not acc_groups:
                break
            bundle = acc_groups[gi % len(acc_groups)]
            for m in group:
                for a in bundle:
                    if rng.random() < cfg.cp_edge_prob:
                        cp.append((int(m), int(a)))
                        direct.append((int(m), int(a)))
                        if rng.random() < cfg.reciprocal_prob:
                            cp.append((int(a), int(m)))

    cp_arr = np.asarray(cp, dtype=np.int64).reshape(-1, 2)
    cv_arr = np.asarray(sorted(set(cv)), dtype=np.int64).reshape(-1, 2)
    direct_arr = np.asarray(direct, dtype=np.int64).reshape(-1, 2)
    trans_arr = transitive_pairs(build_graph(cp_arr, cv_arr, num_nodes),
                                 cp_arr)
    return SynthData(key_map=key_map, features=features,
                     cp_pairs=cp_arr, cv_pairs=cv_arr,
                     direct_truth=direct_arr, transitive_truth=trans_arr)


def write_corpus(data: SynthData, out_dir) -> dict[str, Path]:
    """Write edges.tsv, features.tsv and ground_truth.tsv; byte-stable
    for a fixed config."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"edges": out / "edges.tsv",
             "features": out / "features.tsv",
             "ground_truth": out / "ground_truth.tsv"}
    km = data.key_map
    write_pairs(paths["edges"], km, [(sorted(map(tuple, data.cp_pairs)), "cp"),
                                     (sorted(map(tuple, data.cv_pairs)), "cv")])
    dump_feature_file(data.features, km, paths["features"])
    write_pairs(paths["ground_truth"], km,
                [(sorted(map(tuple, data.direct_truth)), "direct"),
                 (sorted(map(tuple, data.transitive_truth)), "transitive")])
    return paths
