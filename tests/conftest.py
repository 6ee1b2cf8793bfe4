import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from asymgraph.graph import build_graph
from asymgraph.synth import SynthConfig, generate

# No example database on disk; numpy set-up makes first examples slow. A
# failure prints its @reproduce_failure blob, so the failing draw can be
# replayed without a database.
settings.register_profile("asymgraph", database=None, deadline=None,
                          print_blob=True)
settings.load_profile("asymgraph")


@pytest.fixture
def single_edge_graph():
    """Two nodes, one co-purchase edge 0 -> 1."""
    g = build_graph([(0, 1)], [], 2)
    features = np.array([[1.0, 1.0], [1.0, 0.0]])
    return g, features


@pytest.fixture
def random_graph():
    """Factory for small random graphs with features."""

    def make(num_nodes=20, num_cp=40, num_cv=15, d_in=5, seed=0):
        rng = np.random.default_rng(seed)
        cp = rng.integers(0, num_nodes, size=(num_cp, 2))
        cp = cp[cp[:, 0] != cp[:, 1]]
        cv = rng.integers(0, num_nodes, size=(num_cv, 2))
        cv = cv[cv[:, 0] != cv[:, 1]]
        g = build_graph(cp, cv, num_nodes)
        features = rng.normal(size=(num_nodes, d_in))
        return g, features

    return make


@pytest.fixture(scope="session")
def corpus():
    """Default synthetic corpus shared across the suite."""
    data = generate(SynthConfig())
    g = build_graph(data.cp_pairs, data.cv_pairs, len(data.key_map))
    return data, g


@pytest.fixture(scope="session")
def mini_corpus():
    """Small corpus for fast end-to-end tests."""
    cfg = SynthConfig(num_categories=4, products_per_category=30,
                      feature_dim=8, seed=3)
    data = generate(cfg)
    g = build_graph(data.cp_pairs, data.cv_pairs, len(data.key_map))
    return cfg, data, g
