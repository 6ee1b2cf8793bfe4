"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line (visible with `pytest -s`); the test
name itself carries the criterion number for `pytest -v` output. The
trained-model fixtures share one synthetic corpus and the standard
75/5/20 split at seed 0.
"""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from asymgraph import evaluation, retrieval
from asymgraph.coldstart import ColdStartRequest, attach_and_embed, recommend_for_cold
from asymgraph.graph import build_graph, one_way_mask
from asymgraph.loss import LossBatch, asymmetric_loss, loss_grad
from asymgraph.model import ModelParams, backward, embed_all, forward
from asymgraph.sampler import full_blocks, sample_negatives
from asymgraph.trainer import TrainConfig, train
from reference import brute_auc, brute_hitrate_mrr, brute_top_k

PKG_ROOT = Path(__file__).parent.parent
SPLIT_SEED = 0


def report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def split(corpus):
    _data, g = corpus
    return evaluation.make_selection_bias_split(g, seed=SPLIT_SEED)


@pytest.fixture(scope="module")
def trained_cpcv(corpus, split):
    """Stock-default training on co-purchase plus co-view edges."""
    data, g = corpus
    g_train = evaluation.train_graph(g, split, use_coview=True)
    t0 = time.monotonic()
    result = train(g_train, data.features, TrainConfig(), split=split)
    seconds = time.monotonic() - t0
    return g_train, result, seconds


@pytest.fixture(scope="module")
def trained_cponly(corpus, split):
    data, g = corpus
    g_train = evaluation.train_graph(g, split, use_coview=False)
    result = train(g_train, data.features, TrainConfig(), split=split)
    return g_train, result


def rank_edges(g_train, features, params, edges, k=10):
    emb = embed_all(g_train, features, params)
    index = retrieval.EmbeddingIndex.build(emb, graph=g_train)
    queries = np.unique(np.asarray(edges)[:, 0])
    rankings = evaluation.rank_queries(index, queries, k=k)
    return evaluation.hitrate_mrr(rankings, edges, (k,))


def test_criterion_1_gradient_correctness(random_graph):
    """Analytic gradients of the full loss vs central finite differences
    over every weight entry of a 2-layer model on a random 20-node graph."""
    t0 = time.monotonic()
    g, X = random_graph(num_nodes=20, num_cp=40, num_cv=15, d_in=5, seed=0)
    params = ModelParams.init(5, 4, 2, np.random.default_rng(3))
    edges = g.cp_edges
    negatives = sample_negatives(g, edges, 2, rng_seed=5)
    batch = LossBatch(edges, one_way_mask(g, edges), g.cv_pairs, negatives)
    blocks = full_blocks(g, np.arange(20), 2)
    emb, tape = forward(blocks, X, params)
    _, gs, gt = loss_grad(emb, batch)
    analytic = backward(tape, params, gs, gt)

    h = 1e-5
    max_rel = 0.0
    for l, w in enumerate(params.weights):
        for i in range(w.shape[0]):
            for j in range(w.shape[1]):
                orig = w[i, j]
                w[i, j] = orig + h
                lp = asymmetric_loss(forward(blocks, X, params)[0], batch).total
                w[i, j] = orig - h
                lm = asymmetric_loss(forward(blocks, X, params)[0], batch).total
                w[i, j] = orig
                fd = (lp - lm) / (2 * h)
                rel = abs(analytic[l][i, j] - fd) / max(abs(fd), 1e-6)
                max_rel = max(max_rel, rel)
    seconds = time.monotonic() - t0
    report("criterion-1 gradient-correctness",
           max_rel < 1e-4 and seconds < 10.0,
           f"max rel err {max_rel:.3e}, {seconds:.1f}s")


def test_criterion_2_forward_fidelity():
    """Hand-computed single-edge outputs and the zero-guard case."""
    g = build_graph([(0, 1)], [], 2)
    X = np.array([[1.0, 1.0], [1.0, 0.0]])
    emb, _ = forward(full_blocks(g, [0, 1], 1), X, ModelParams([np.eye(2)]))
    ok = (np.allclose(emb.theta_s[0], [1.0, 0.0], atol=1e-6)
          and np.allclose(emb.theta_t[1], [1 / np.sqrt(2), 1 / np.sqrt(2)],
                          atol=1e-6)
          and np.array_equal(emb.theta_t[0], [0.0, 0.0])
          and np.array_equal(emb.theta_s[1], [0.0, 0.0]))

    g_iso = build_graph([(1, 2)], [], 4)
    params = ModelParams.init(2, 3, 2, np.random.default_rng(0))
    emb_iso, _ = forward(full_blocks(g_iso, [0], 2),
                         np.ones((4, 2)), params)
    ok = ok and np.array_equal(emb_iso.theta_s[0], np.zeros(3)) \
        and np.array_equal(emb_iso.theta_t[0], np.zeros(3))
    report("criterion-2 forward-fidelity", ok,
           f"source {emb.theta_s[0].round(4).tolist()}, "
           f"target {emb.theta_t[1].round(4).tolist()}, zero-guard holds")


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_3_link_prediction_trend(corpus, split, trained_cpcv):
    """Direction AUC >= 0.85 and existence AUC >= 0.90 with stock-default
    training on the planted graph, within the runtime budget."""
    data, g = corpus
    g_train, result, seconds = trained_cpcv
    base_test = split.test_edges[: len(split.test_edges)
                                 - len(split.synth_test_edges)]
    emb = embed_all(g_train, data.features, result.params)
    pos = evaluation.relevance_scores(emb, base_test)
    neg = evaluation.relevance_scores(
        emb, evaluation.sample_non_edges(g, len(base_test), SPLIT_SEED))
    existence = evaluation.auc_existence(pos, neg)
    direction = evaluation.auc_direction(g, base_test, emb)
    epochs = len(result.history)
    report("criterion-3 link-prediction-trend",
           direction >= 0.85 and existence >= 0.90
           and epochs <= 30 and seconds < 600,
           f"direction {direction:.4f}, existence {existence:.4f}, "
           f"{epochs} epochs, {seconds:.0f}s")


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_4_selection_bias_trend(corpus, split, trained_cpcv,
                                          trained_cponly):
    """Training with co-view signal must beat co-purchase-only training on
    the synthesized transitive test edges by at least 5% relative."""
    data, _g = corpus
    g_cv, result_cv, _ = trained_cpcv
    g_cp, result_cp = trained_cponly
    synth = split.synth_test_edges
    with_cv = rank_edges(g_cv, data.features, result_cv.params, synth)
    without_cv = rank_edges(g_cp, data.features, result_cp.params, synth)
    hr_cv, hr_cp = with_cv.hitrate[10], without_cv.hitrate[10]
    mrr_cv, mrr_cp = with_cv.mrr[10], without_cv.mrr[10]
    ok = (hr_cv > hr_cp and mrr_cv > mrr_cp
          and hr_cv >= 1.05 * hr_cp and mrr_cv >= 1.05 * mrr_cp)
    report("criterion-4 selection-bias-trend", ok,
           f"HitRate@10 {hr_cv:.4f} vs {hr_cp:.4f}, "
           f"MRR@10 {mrr_cv:.4f} vs {mrr_cp:.4f} on {len(synth)} synthesized edges")


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_5_node_recommendation_sanity(corpus, split, trained_cpcv):
    """HitRate@10 on held-out planted edges at least 10x random ranking."""
    data, g = corpus
    g_train, result, _ = trained_cpcv
    base_test = split.test_edges[: len(split.test_edges)
                                 - len(split.synth_test_edges)]
    got = rank_edges(g_train, data.features, result.params, base_test)
    baseline = 10.0 / g.num_nodes
    report("criterion-5 node-recommendation-sanity",
           got.hitrate[10] >= 10 * baseline,
           f"HitRate@10 {got.hitrate[10]:.4f} vs 10x baseline {10 * baseline:.4f}")


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_criterion_6_cold_start_consistency(corpus, trained_cpcv):
    """Cold clones of warm products recover the warm top-10 (mean Jaccard
    >= 0.6) and attachment leaves warm embeddings bit-identical."""
    data, _g = corpus
    g_train, result, _ = trained_cpcv
    before = embed_all(g_train, data.features, result.params)
    index = retrieval.EmbeddingIndex.build(before, graph=g_train)
    rng = np.random.default_rng(1)
    jaccards = []
    for a in rng.choice(g_train.num_nodes, size=40, replace=False):
        a = int(a)
        if not np.any(before.theta_s[a]):
            continue
        req = ColdStartRequest(key="clone", features=data.features[a])
        theta_s, _theta_t, _warm = attach_and_embed(
            g_train, data.features, result.params, req)
        cold_top = {i for i, _ in recommend_for_cold(theta_s, index, 10)}
        warm_top = {i for i, _ in retrieval.recommend_related(index, a, 10)}
        union = cold_top | warm_top
        jaccards.append(len(cold_top & warm_top) / len(union) if union else 0.0)
    after = embed_all(g_train, data.features, result.params)
    unchanged = (np.array_equal(before.theta_s, after.theta_s)
                 and np.array_equal(before.theta_t, after.theta_t))
    mean_j = float(np.mean(jaccards))
    report("criterion-6 cold-start-consistency",
           mean_j >= 0.6 and unchanged,
           f"mean Jaccard {mean_j:.3f} over {len(jaccards)} clones, "
           f"warm embeddings unchanged: {unchanged}")


def test_criterion_7_metric_oracles():
    """HitRate/MRR match a brute-force oracle exactly and AUC to 1e-12 on
    200 randomized micro-instances each."""
    rng = np.random.default_rng(12)
    exact = True
    for _ in range(200):
        n_items = int(rng.integers(5, 30))
        n_queries = int(rng.integers(1, 6))
        rankings = {q: rng.permutation(n_items)[: rng.integers(1, n_items)]
                        .tolist()
                    for q in range(n_queries)}
        edges = [(int(rng.integers(0, n_queries)),
                  int(rng.integers(0, n_items)))
                 for _ in range(int(rng.integers(1, 12)))]
        k = int(rng.integers(1, 15))
        got = evaluation.hitrate_mrr(rankings, edges, (k,))
        hr, mrr = brute_hitrate_mrr(rankings, edges, k)
        exact &= got.hitrate[k] == hr and got.mrr[k] == mrr
    max_auc_err = 0.0
    for _ in range(200):
        pos = np.round(rng.normal(size=rng.integers(1, 25)), 1)
        neg = np.round(rng.normal(size=rng.integers(1, 25)), 1)
        err = abs(evaluation.auc_existence(pos, neg) - brute_auc(pos, neg))
        max_auc_err = max(max_auc_err, err)
    report("criterion-7 metric-oracles", exact and max_auc_err <= 1e-12,
           f"hitrate/mrr exact: {exact}, max AUC err {max_auc_err:.2e}")


def test_criterion_8_retrieval_exactness():
    """Exact top-k equals the full-scan oracle (the canonical score of
    every row) for 1000 queries over a 10k-row index, including
    deliberate ties broken by id."""
    rng = np.random.default_rng(7)
    d = 16
    theta_t = np.round(rng.normal(size=(10_000, d)), 1)
    theta_t[500:600] = theta_t[100:200]  # exact duplicate rows force ties
    theta_s = np.zeros_like(theta_t)
    theta_s[:1000] = np.round(rng.normal(size=(1000, d)), 1)
    from asymgraph.model import DualEmbeddings
    emb = DualEmbeddings(nodes=np.arange(10_000), theta_s=theta_s,
                         theta_t=theta_t)
    index = retrieval.EmbeddingIndex.build(emb)
    mismatches = 0
    tie_checked = 0
    every = np.arange(10_000)
    for q in range(1000):
        if not np.any(theta_s[q]):
            continue
        got = retrieval.recommend_related(index, q, 10)
        want = brute_top_k(
            retrieval.canonical_scores(theta_t, every, theta_s[q]), 10)
        if [i for i, _ in got] != [i for i, _ in want]:
            mismatches += 1
        scores = [s for _, s in got]
        if len(set(scores)) < len(scores):
            tie_checked += 1
            ids_by_score = {}
            for i, s in got:
                ids_by_score.setdefault(s, []).append(i)
            for ids in ids_by_score.values():
                assert ids == sorted(ids)
    report("criterion-8 retrieval-exactness",
           mismatches == 0 and tie_checked > 0,
           f"0 mismatches across 1000 queries, {tie_checked} tied results verified")


def test_criterion_9_pipeline_determinism(tmp_path):
    """synth -> train(3 epochs) -> eval run twice from one
    seed must produce byte-identical metric reports."""

    def run_pipeline(root: Path) -> tuple[bytes, bytes]:
        root.mkdir(parents=True, exist_ok=True)
        corpus_dir = root / "corpus"
        model_dir = root / "model"
        eval_dir = root / "eval"
        cfg = root / "train.cfg"
        cfg.write_text("max_epochs = 3\n")
        steps = [
            ["synth", "--out", str(corpus_dir), "--seed", "0"],
            ["train", "--graph", str(corpus_dir / "edges.tsv"),
             "--features", str(corpus_dir / "features.tsv"),
             "--config", str(cfg), "--out", str(model_dir),
             "--split", "edge", "--split-seed", str(SPLIT_SEED)],
            ["eval", "--task", "node-rec", "--model", str(model_dir),
             "--graph", str(corpus_dir / "edges.tsv"),
             "--features", str(corpus_dir / "features.tsv"),
             "--split-seed", str(SPLIT_SEED), "--out", str(eval_dir)],
        ]
        for step in steps:
            proc = subprocess.run([sys.executable, "-m", "asymgraph", *step],
                                  capture_output=True, text=True, cwd=PKG_ROOT)
            assert proc.returncode == 0, f"{step[0]} failed: {proc.stderr}"
        return ((eval_dir / "metrics.tsv").read_bytes(),
                (eval_dir / "summary.txt").read_bytes())

    first = run_pipeline(tmp_path / "run1")
    second = run_pipeline(tmp_path / "run2")
    identical = first[0] == second[0] and first[1] == second[1]
    report("criterion-9 pipeline-determinism", identical,
           f"metrics.tsv {len(first[0])} bytes, byte-identical: {identical}")
