"""Experimental splits and retrieval metrics.

Five offline tasks are supported: node recommendation, existence and
direction link prediction, cold-start recommendation over a node split,
and the selection-bias task whose test set is augmented with synthesized
transitive edges (co-purchase followed by co-view).

Co-view edges never enter a test set; they are auxiliary signal and stay
in training. Rankings filter out the query and its train-time co-purchase
out-neighbors by default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import coldstart, retrieval
from .graph import (DirectedProductGraph, build_graph, has_cp_edges,
                    one_way_mask, transitive_pairs)
from .model import DualEmbeddings, ModelParams, embed_all
from .util import STREAM_EVAL, STREAM_SPLIT, derive_rng

DEFAULT_RATIOS = (0.75, 0.05, 0.20)
DEFAULT_KS = (5, 10, 20)


@dataclass
class EvalSplit:
    train_edges: np.ndarray | None = None
    val_edges: np.ndarray | None = None
    test_edges: np.ndarray | None = None
    synth_test_edges: np.ndarray | None = None     # selection-bias only
    train_nodes: np.ndarray | None = None          # node split only
    val_nodes: np.ndarray | None = None
    test_nodes: np.ndarray | None = None


def _check_ratios(ratios) -> tuple:
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or any(r < 0 for r in ratios):
        raise ValueError(f"need three non-negative ratios, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {ratios}")
    return ratios


def _three_way(count: int, ratios, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    order = rng.permutation(count)
    n_train = int(np.floor(ratios[0] * count))
    n_val = int(np.floor(ratios[1] * count))
    return (np.sort(order[:n_train]),
            np.sort(order[n_train:n_train + n_val]),
            np.sort(order[n_train + n_val:]))


def make_edge_split(g: DirectedProductGraph, ratios=DEFAULT_RATIOS,
                    seed: int = 0) -> EvalSplit:
    """Uniform random partition of co-purchase edges; co-view stays in train."""
    ratios = _check_ratios(ratios)
    rng = derive_rng(seed, STREAM_SPLIT)
    tr, va, te = _three_way(g.num_cp_edges, ratios, rng)
    return EvalSplit(train_edges=g.cp_edges[tr],
                     val_edges=g.cp_edges[va],
                     test_edges=g.cp_edges[te])


def make_selection_bias_split(g: DirectedProductGraph, ratios=DEFAULT_RATIOS,
                              seed: int = 0) -> EvalSplit:
    """Edge split plus synthesized transitive test edges: the
    `transitive_pairs` of the train edges (a bought b, c co-viewed with b),
    capped at the size of the held-out test set to keep the evaluation
    balanced."""
    base = make_edge_split(g, ratios, seed)
    synth = transitive_pairs(g, base.train_edges)
    cap = len(base.test_edges)
    # balance against the held-out edges; with no held-out edges the
    # synthesized relationships are the whole test set
    if cap > 0 and len(synth) > cap:
        rng = derive_rng(seed, STREAM_SPLIT, 1)
        keep = rng.choice(len(synth), size=cap, replace=False)
        synth = synth[np.sort(keep)]
    test = np.concatenate([base.test_edges, synth]) if len(synth) \
        else base.test_edges
    return EvalSplit(train_edges=base.train_edges, val_edges=base.val_edges,
                     test_edges=test, synth_test_edges=synth)


def make_node_split(g: DirectedProductGraph, ratios=DEFAULT_RATIOS,
                    seed: int = 0) -> EvalSplit:
    """Node partition for the cold-start task; test nodes keep features only."""
    ratios = _check_ratios(ratios)
    rng = derive_rng(seed, STREAM_SPLIT)
    tr, va, te = _three_way(g.num_nodes, ratios, rng)
    return EvalSplit(train_nodes=tr, val_nodes=va, test_nodes=te)


# Each split once, by name: split name -> the name of its maker above,
# looked up at call time so a wrapper bound over a maker sees every call.
SPLITS = {"none": None, "edge": "make_edge_split", "node": "make_node_split",
          "selection-bias": "make_selection_bias_split"}
# The split each offline task is scored on.
TASKS = {"node-rec": "edge", "lp-exist": "edge", "lp-dir": "edge",
         "coldstart": "node", "selection-bias": "selection-bias"}


def make_split(name: str, g: DirectedProductGraph, ratios=DEFAULT_RATIOS,
               seed: int = 0) -> EvalSplit | None:
    """The split `SPLITS[name]` of `g`; None for "none"."""
    maker = SPLITS[name]
    return None if maker is None else globals()[maker](g, ratios, seed)


def train_graph(g: DirectedProductGraph, split: EvalSplit | None,
                use_coview: bool = True) -> DirectedProductGraph:
    """The graph visible at training/inference time for a split (all of
    `g` for no split)."""
    cv = g.cv_pairs if use_coview else np.empty((0, 2), dtype=np.int64)
    if split is None:
        return build_graph(g.cp_edges, cv, g.num_nodes)
    if split.train_nodes is None:   # an edge split
        return build_graph(split.train_edges, cv, g.num_nodes)
    keep = np.zeros(g.num_nodes, dtype=bool)
    keep[split.train_nodes] = True
    cp = g.cp_edges[keep[g.cp_edges[:, 0]] & keep[g.cp_edges[:, 1]]]
    cv = cv[keep[cv[:, 0]] & keep[cv[:, 1]]]
    return build_graph(cp, cv, g.num_nodes)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------

@dataclass
class MetricReport:
    hitrate: dict[int, float] = field(default_factory=dict)
    mrr: dict[int, float] = field(default_factory=dict)
    auc: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    def rows(self) -> list[tuple[str, float]]:
        out = []
        for prefix, values in (("hitrate@", self.hitrate), ("mrr@", self.mrr),
                               ("auc_", self.auc), ("count_", self.counts)):
            out += [(f"{prefix}{k}", float(values[k]))
                    for k in sorted(values, key=str)]
        return out


def rank_queries(index: retrieval.EmbeddingIndex, queries, k: int,
                 filter: str = "exclude_train_neighbors") -> dict[int, list[int]]:
    """Top-k ranked ids per query with the standard exclusion filter."""
    results = retrieval.batch_recommend(index, queries, k, filter=filter)
    return {int(q): [i for i, _ in res] for q, res in zip(queries, results)}


def _ranks(rankings: dict[int, list[int]], edges: np.ndarray) -> np.ndarray:
    """1-based position of each edge's v in its u's ranking, counting the
    first occurrence; 0 when u has no ranking or v is not in it."""
    first: dict = {}
    for q, ids in rankings.items():
        for pos, i in enumerate(ids, 1):
            first.setdefault((q, i), pos)
    return np.fromiter((first.get((u, v), 0) for u, v in edges.tolist()),
                       dtype=np.int64, count=len(edges))


def hitrate_mrr(rankings: dict[int, list[int]], test_edges,
                k_list=DEFAULT_KS) -> MetricReport:
    """HitRate@k and MRR@k over test edges.

    A test edge (u, v) scores a hit at k when v appears in u's top-k;
    its reciprocal rank is 1/rank when rank <= k, else 0.
    """
    test_edges = np.asarray(test_edges, dtype=np.int64).reshape(-1, 2)
    report = MetricReport(counts={"test_edges": len(test_edges)})
    ranks = _ranks(rankings, test_edges)
    n = len(ranks)
    for k in k_list:
        hit = (ranks > 0) & (ranks <= k)
        # fsum: exactly rounded, so the reduction order cannot matter;
        # misses add exact zeros, so summing over the hits alone is the same
        report.hitrate[k] = np.count_nonzero(hit) / n if n else 0.0
        report.mrr[k] = math.fsum(1.0 / ranks[hit]) / n if n else 0.0
    return report


def auc_existence(scores_pos, scores_neg) -> float:
    """Mann-Whitney AUC with ties counted as 0.5; NaN if any score is."""
    pos = np.asarray(scores_pos, dtype=np.float64).reshape(-1)
    neg = np.asarray(scores_neg, dtype=np.float64).reshape(-1)
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("AUC needs at least one score on each side")
    if np.isnan(pos).any() or np.isnan(neg).any():
        return math.nan
    neg = np.sort(neg)
    below = np.searchsorted(neg, pos, side="left")
    ties = np.searchsorted(neg, pos, side="right") - below
    # U counts whole and half wins, so it and the sums are exact
    u = below.sum() + ties.sum() / 2
    return float(u / (len(pos) * len(neg)))


def relevance_scores(emb: DualEmbeddings, pairs: np.ndarray) -> np.ndarray:
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    return retrieval.canonical_scores(emb.theta_t, emb.rows_of(pairs[:, 1]),
                                      emb.theta_s[emb.rows_of(pairs[:, 0])])


def sample_non_edges(g: DirectedProductGraph, count: int,
                     seed: int = 0) -> np.ndarray:
    """Uniform ordered pairs (u, v), u != v, absent from the co-purchase set.

    Pairs are drawn in blocks; the first `count` legal pairs in draw order
    are kept. After 1000 * max(count, 1) draws without enough of them the
    graph counts as too dense.
    """
    rng = derive_rng(seed, STREAM_EVAL)
    limit = 1000 * max(count, 1)
    drawn = 0
    kept = [np.empty((0, 2), dtype=np.int64)]
    found = 0
    while found < count:
        if drawn >= limit:
            raise ValueError("graph too dense to sample non-edges")
        size = min(2 * (count - found), limit - drawn)
        pairs = rng.integers(0, g.num_nodes, size=(size, 2))
        drawn += size
        pairs = pairs[(pairs[:, 0] != pairs[:, 1])
                      & ~has_cp_edges(g, pairs[:, 0], pairs[:, 1])]
        kept.append(pairs)
        found += len(pairs)
    return np.concatenate(kept)[:count]


def auc_direction(g: DirectedProductGraph, test_edges: np.ndarray,
                  emb: DualEmbeddings) -> float:
    """AUC of true one-way edges scored against their reversals."""
    test_edges = np.asarray(test_edges, dtype=np.int64).reshape(-1, 2)
    ow = one_way_mask(g, test_edges)
    edges = test_edges[ow]
    if len(edges) == 0:
        raise ValueError("no one-way edges among test edges")
    pos = relevance_scores(emb, edges)
    neg = relevance_scores(emb, edges[:, ::-1])
    return auc_existence(pos, neg)


# ----------------------------------------------------------------------
# Task runners
# ----------------------------------------------------------------------

def ranking_report(g_train: DirectedProductGraph, emb: DualEmbeddings,
                   test_edges, ks, synth=None) -> MetricReport:
    """HitRate@k and MRR@k of held-out edges (u, v), each u ranking every
    product but itself and its co-purchase out-neighbors in `g_train`; of
    `synth`, a subset scored from the same rankings, as "<k>_synth"."""
    index = retrieval.EmbeddingIndex.build(emb, graph=g_train)
    queries = np.unique(np.asarray(test_edges)[:, 0])
    rankings = rank_queries(index, queries, k=max(ks))
    report = hitrate_mrr(rankings, test_edges, ks)
    if synth is not None and len(synth):
        sub = hitrate_mrr(rankings, synth, ks)
        report.hitrate.update((f"{k}_synth", sub.hitrate[k]) for k in ks)
        report.mrr.update((f"{k}_synth", sub.mrr[k]) for k in ks)
        report.counts["synth_test_edges"] = len(synth)
    return report


def run_task(task: str, g: DirectedProductGraph, features: np.ndarray,
             params: ModelParams, split_seed: int = 0, ks=DEFAULT_KS,
             ratios=DEFAULT_RATIOS, use_coview: bool = True,
             k_sim: int = 5) -> MetricReport:
    """Run one offline task end to end against a trained model.

    The task's split (`TASKS`) is rebuilt deterministically from (graph,
    split_seed), so a model trained against the same seed is evaluated on
    held-out data it never saw. Validation edges stay out of the inference
    graph.
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}; expected one of "
                         f"{tuple(TASKS)}")
    split = make_split(TASKS[task], g, ratios, split_seed)
    g_train = train_graph(g, split, use_coview=use_coview)
    emb = embed_all(g_train, features, params)
    if task == "lp-exist":
        pos = relevance_scores(emb, split.test_edges)
        non_edges = sample_non_edges(g, len(split.test_edges), split_seed)
        neg = relevance_scores(emb, non_edges)
        report = MetricReport(counts={"test_edges": len(pos),
                                      "non_edges": len(neg)})
        report.auc["existence"] = auc_existence(pos, neg)
        return report
    if task == "lp-dir":
        ow = one_way_mask(g, split.test_edges)
        report = MetricReport(counts={"one_way_test_edges": int(ow.sum())})
        report.auc["direction"] = auc_direction(g, split.test_edges, emb)
        return report
    if task != "coldstart":   # node-rec and selection-bias
        return ranking_report(g_train, emb, split.test_edges, ks,
                              split.synth_test_edges)

    # cold start: each test node with co-purchase edges into train nodes
    # ranks warm products from its cold-start embedding
    index = retrieval.EmbeddingIndex.build(emb, graph=g_train)
    deg, targets = g.cp_out.rows(split.test_nodes)
    test_edges = np.stack([np.repeat(split.test_nodes, deg), targets],
                          axis=1)[np.isin(targets, split.train_nodes)]
    if not len(test_edges):
        raise ValueError("node split produced no evaluable cold-start edges")
    cold = np.unique(test_edges[:, 0])
    rankings: dict[int, list[int]] = {}
    for start, recs, _warm in coldstart.recommend_cold_blocks(
            g_train, features, params, index, features[cold], max(ks), k_sim,
            split.train_nodes):
        rankings.update((int(c), [i for i, _ in r])
                        for c, r in zip(cold[start:], recs))
    report = hitrate_mrr(rankings, test_edges, ks)
    report.counts["cold_queries"] = len(rankings)
    return report
