import hashlib

import numpy as np
import pytest

from asymgraph.errors import DataFormatError
from asymgraph.formats import load_config
from asymgraph.graph import build_graph, graph_stats, load_edge_file
from asymgraph.synth import SynthConfig, generate, write_corpus
from reference import loop_transitive_pairs

# sha256 of `write_corpus(generate(SynthConfig()))`, taken before the
# transitive ground truth left its set loop; a change means the generator's
# random stream or its ground truth moved
DEFAULT_CORPUS_SHA256 = {
    "edges.tsv":
        "fde9f4ed62b54edc8b75130c84c518bc71588c24d9d63d6fd65294532dd5e564",
    "features.tsv":
        "e3eb6cb2ae587052822c10f90ad8e003724819ce226da987c367361459cff4f5",
    "ground_truth.tsv":
        "f2343ad4ed69c693dbd99cc0eae0cefbb75eb85ae372a1744b5456996de55b41",
}


def test_reciprocal_zero_means_all_one_way():
    cfg = SynthConfig(num_categories=4, products_per_category=40,
                      reciprocal_prob=0.0, seed=1)
    data = generate(cfg)
    g = build_graph(data.cp_pairs, data.cv_pairs, len(data.key_map))
    stats = graph_stats(g)
    assert stats.one_way_pair_share == 1.0


def test_clique_size_one_means_no_coview():
    cfg = SynthConfig(num_categories=3, products_per_category=20,
                      cv_clique_size=1, seed=2)
    data = generate(cfg)
    assert len(data.cv_pairs) == 0


def test_default_config_hits_shape_targets(corpus):
    _data, g = corpus
    stats = graph_stats(g)
    assert 4.0 <= stats.avg_degree <= 10.0
    assert 0.70 <= stats.one_way_pair_share <= 0.85


def test_same_seed_byte_identical(tmp_path):
    cfg = SynthConfig(num_categories=3, products_per_category=24, seed=9)
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    write_corpus(generate(cfg), a_dir)
    write_corpus(generate(cfg), b_dir)
    for name in ("edges.tsv", "features.tsv", "ground_truth.tsv"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()


def test_different_seed_differs(tmp_path):
    base = SynthConfig(num_categories=3, products_per_category=24, seed=9)
    other = SynthConfig(num_categories=3, products_per_category=24, seed=10)
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    write_corpus(generate(base), a_dir)
    write_corpus(generate(other), b_dir)
    assert (a_dir / "edges.tsv").read_bytes() != (b_dir / "edges.tsv").read_bytes()


def test_ground_truth_transitive_pattern(mini_corpus):
    """Every transitive pair must come from a co-purchase hop followed by
    a co-view hop and must not itself be a co-purchase edge."""
    _cfg, data, g = mini_corpus
    cp_set = {tuple(e) for e in data.cp_pairs}
    for a, c in data.transitive_truth:
        a, c = int(a), int(c)
        assert (a, c) not in cp_set
        found = any(c in g.cv_out.neighbors(b)
                    for b in g.cp_out.neighbors(a))
        assert found, f"no co-purchase/co-view path from {a} to {c}"


@pytest.mark.parametrize("cfg", [
    SynthConfig(num_categories=3, products_per_category=30, seed=4),
    SynthConfig(num_categories=2, products_per_category=25,
                reciprocal_prob=1.0, seed=5),
    SynthConfig(num_categories=2, products_per_category=20,
                cv_clique_size=1, seed=6),
    SynthConfig(num_categories=2, products_per_category=20,
                cp_edge_prob=0.0, seed=7),
])
def test_transitive_truth_matches_loop_oracle(cfg):
    data = generate(cfg)
    want = loop_transitive_pairs(data.cp_pairs, data.cv_pairs)
    got = data.transitive_truth
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def test_default_corpus_bytes_are_pinned(tmp_path):
    paths = write_corpus(generate(SynthConfig()), tmp_path)
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in paths.values()} == DEFAULT_CORPUS_SHA256


def test_direct_truth_are_planted_edges(mini_corpus):
    _cfg, data, _g = mini_corpus
    cp_set = {tuple(e) for e in data.cp_pairs}
    for pair in data.direct_truth:
        assert tuple(pair) in cp_set


def test_features_are_finite_and_clustered(mini_corpus):
    cfg, data, _g = mini_corpus
    assert np.isfinite(data.features).all()
    # co-view partners sit closer in feature space than random pairs
    rng = np.random.default_rng(0)
    def cos(u, v):
        a, b = data.features[u], data.features[v]
        return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
    cv_cos = np.mean([cos(int(u), int(v)) for u, v in data.cv_pairs[:200]])
    n = len(data.key_map)
    rand_cos = np.mean([cos(int(rng.integers(n)), int(rng.integers(n)))
                        for _ in range(200)])
    assert cv_cos > rand_cos + 0.2


def test_corpus_files_load_back(tmp_path, mini_corpus):
    _cfg, data, g = mini_corpus
    paths = write_corpus(data, tmp_path)
    cp, cv, km = load_edge_file(paths["edges"])
    g2 = build_graph(cp, cv, len(km))
    assert g2.num_cp_edges == g.num_cp_edges
    assert len(g2.cv_pairs) == len(g.cv_pairs)


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(cp_edge_prob=1.5)
    with pytest.raises(ValueError):
        SynthConfig(num_categories=0)
    with pytest.raises(ValueError):
        SynthConfig(noise_std=-0.1)


def test_config_file_parsing(tmp_path):
    path = tmp_path / "synth.cfg"
    path.write_text("num_categories = 5\nproducts_per_category = 44\n"
                    "# comment\ncp_edge_prob = 0.5\nseed = 7\n")
    cfg = load_config(path, SynthConfig)
    assert cfg.num_categories == 5
    assert cfg.products_per_category == 44
    assert cfg.cp_edge_prob == 0.5
    assert cfg.seed == 7
    path.write_text("volume = 11\n")
    with pytest.raises(DataFormatError):
        load_config(path, SynthConfig)
