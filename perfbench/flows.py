"""The benchmark's workloads, driven only through asymgraph's public API.

Every workload runs the same in-process user flow on its own corpus:
train one epoch, embed the catalogue, a closed-loop stream of related
queries, batch ranking of the held-out query ids and a closed-loop stream
of cold-start requests. pipeline-2k first runs the whole CLI pipeline
in-process through ``asymgraph.cli.main``, then again without the
coldstart eval task to check that the outputs repeat byte for byte.

Every input is derived from the workload seed. Set-up (corpus, graph,
split, request files) is timed apart from the flow and is repeated so
that its median can be reported.
"""

from __future__ import annotations

import contextlib
import math
import re
import shutil
import statistics
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from asymgraph import (cli, coldstart, evaluation, graph, model, retrieval,
                       synth, trainer)

CLOCK = time.perf_counter

# Tags that keep the benchmark's own random streams apart from each other.
TAG_CROSS = 101
TAG_QUERIES = 102
TAG_COLD = 103
TAG_ORACLE = 104
TAG_KEYS = 105
TAG_RANK = 106
TAG_FIT = 107

QUERY_K = 10
RANK_K = 20
COLD_K = 10
COLD_K_SIM = 5
# serving rounds per run; each embeds the catalogue once
ROUNDS = 10
SETUP_REPEATS = 3
ORACLE_QUERIES = 20
# Held-out node-rec MRR@10 after one epoch is about 0.5 on the stock
# corpora; random ranking of 2k-10k products scores below 0.01.
MRR10_FLOOR = 0.25
# query keys and cold products in the CLI pipeline's input files
CLI_KEYS = 200
CLI_COLD = 20
EVAL_TASKS = ("node-rec", "lp-exist", "lp-dir", "coldstart", "selection-bias")
# The determinism rerun leaves out the coldstart task, which is 40% of the
# pipeline; its inputs (node split, weights) are covered by the others.
RERUN_TASKS = ("node-rec", "lp-exist", "lp-dir", "selection-bias")


@dataclass(frozen=True)
class Workload:
    name: str
    num_categories: int
    cross_pairs: int          # seeded cross-category cp and cv pairs, each
    train_share: float        # share of train cp edges the epoch runs over
    # requests per second of --seconds: related queries, ranked held-out
    # query ids, cold-start requests (more on the cheaper 2k catalogue)
    queries_per_s: int
    rank_per_s: int
    cold_per_s: int
    mrr_floor: bool           # check held-out MRR@10 against MRR10_FLOOR
    cli: bool                 # also run the CLI pipeline


WORKLOADS = {
    "train-10k": Workload("train-10k", 100, 0, 1.0, 100, 100, 10, True, False),
    # the serve epoch only gives the serving steps their weights; a quarter
    # of the edges keeps the run within the benchmark's time budget
    "serve-10k-mixed": Workload("serve-10k-mixed", 100, 3000, 0.25, 100, 100,
                                10, False, False),
    "pipeline-2k": Workload("pipeline-2k", 20, 0, 1.0, 500, 300, 20, True, True),
}
# The smoke test runs every workload on a few categories.
TINY_CATEGORIES = 4


@dataclass
class Ledger:
    """Operations attempted and failed, and which correctness checks ran."""

    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)

    def op(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks[name] = bool(ok) and self.checks.get(name, True)
        return self.op(ok, f"check {name} failed {detail}".strip())


@dataclass
class Corpus:
    seed: int
    data: synth.SynthData
    g: graph.DirectedProductGraph
    split: evaluation.EvalSplit
    g_train: graph.DirectedProductGraph
    g_fit: graph.DirectedProductGraph     # the graph the epoch trains on

    @property
    def features(self) -> np.ndarray:
        return self.data.features


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def cross_category_pairs(key_map, seed: int, count: int) -> np.ndarray:
    """`count` uniform ordered pairs whose endpoints lie in different
    categories (the `cNN` key prefix), drawn from the workload seed."""
    keys = key_map.keys()
    cat = np.array([int(re.match(r"c(\d+)", k).group(1)) for k in keys])
    rng = _rng(seed, TAG_CROSS)
    out = np.empty((0, 2), dtype=np.int64)
    while len(out) < count:
        u = rng.integers(0, len(keys), size=2 * count)
        v = rng.integers(0, len(keys), size=2 * count)
        pairs = np.stack([u, v], axis=1)[cat[u] != cat[v]]
        out = np.concatenate([out, pairs])
    return out[:count]


def make_corpus(wl: Workload, seed: int, num_categories: int) -> Corpus:
    data = synth.generate(synth.SynthConfig(num_categories=num_categories,
                                            seed=seed))
    cp, cv = data.cp_pairs, data.cv_pairs
    # the same cross-pair density on a smaller (smoke-test) corpus
    count = round(wl.cross_pairs * num_categories / wl.num_categories)
    if count:
        cross = cross_category_pairs(data.key_map, seed, 2 * count)
        cp = np.concatenate([cp, cross[:count]])
        cv = np.concatenate([cv, cross[count:]])
    g = graph.build_graph(cp, cv, len(data.key_map))
    split = evaluation.make_edge_split(g, seed=seed)
    g_train = evaluation.train_graph(g, split)
    g_fit = g_train
    if wl.train_share < 1.0:
        cp = g_train.cp_edges
        keep = _rng(seed, TAG_FIT).choice(
            len(cp), size=round(wl.train_share * len(cp)), replace=False)
        g_fit = graph.build_graph(cp[np.sort(keep)], g_train.cv_pairs,
                                  g.num_nodes)
    return Corpus(seed, data, g, split, g_train, g_fit)


def cold_features(corpus: Corpus, count: int) -> np.ndarray:
    """New products: a seeded warm product's features plus fresh noise."""
    rng = _rng(corpus.seed, TAG_COLD)
    base = rng.integers(0, corpus.g.num_nodes, size=count)
    noise = rng.normal(scale=0.1, size=(count, corpus.features.shape[1]))
    return corpus.features[base] + noise


def write_cli_inputs(corpus: Corpus, work: Path, num_keys: int,
                     num_cold: int) -> dict[str, Path]:
    """Query-key file and cold feature file for the CLI pipeline."""
    work.mkdir(parents=True, exist_ok=True)
    km = corpus.data.key_map
    rng = _rng(corpus.seed, TAG_KEYS)
    keys = [km.key_of(int(i)) for i in rng.choice(len(km), size=num_keys,
                                                  replace=False)]
    paths = {"keys": work / "keys.txt", "cold": work / "cold.tsv"}
    paths["keys"].write_text("".join(k + "\n" for k in keys), encoding="utf-8")
    cold = cold_features(corpus, num_cold)
    cold_km = graph.KeyMap(f"cold{i:04d}" for i in range(num_cold))
    graph.dump_feature_file(cold, cold_km, paths["cold"])
    return paths


def setup(wl: Workload, seed: int, num_categories: int, work: Path,
          ledger: Ledger):
    """Set up SETUP_REPEATS times from scratch; keep the last corpus."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = CLOCK()
        corpus = make_corpus(wl, seed, num_categories)
        paths = write_cli_inputs(corpus, work / "inputs", CLI_KEYS, CLI_COLD) \
            if wl.cli else {}
        times.append(CLOCK() - t0)
    split = corpus.split
    ledger.check("setup_corpus_nonempty",
                 len(split.test_edges) > 0 and len(split.val_edges) > 0)
    return corpus, paths, statistics.median(times)


def warm_up(work: Path) -> None:
    """One untimed pass of every flow step on a tiny corpus, so that lazy
    imports and first-call costs stay out of the timed phases."""
    wl = Workload("warm-up", 2, 0, 1.0, 1, 1, 1, False, False)
    corpus = make_corpus(wl, 0, 2)
    run_flow(corpus, work / "warm-up", queries=3, ranked=3, colds=2,
             ledger=Ledger(), tracer=None, mrr_floor=False)


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _oracle_top_k(emb, g_train, q: int, k: int):
    """Independent full sort by (-score, id) minus the query and its
    training co-purchase out-neighbours."""
    vec = emb.theta_s[q]
    if not np.any(vec):
        return [], np.empty(0)
    scores = emb.theta_t @ vec
    cp = g_train.cp_edges
    excluded = set(cp[cp[:, 0] == q, 1].tolist()) | {q}
    order = sorted((i for i in range(len(scores)) if i not in excluded),
                   key=lambda i: (-scores[i], i))[:k]
    return order, scores[order]


def _scope(tracer, request_id):
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.request_scope(request_id)


def _query(index, q: int, request_id: str, tracer, ledger: Ledger, lat: list):
    """One related query, closed loop: the next goes out when this returns."""
    with _scope(tracer, request_id):
        t0 = CLOCK()
        try:
            res = retrieval.recommend_related(index, q, QUERY_K,
                                              filter="exclude_train_neighbors")
        except (KeyError, ValueError) as exc:
            ledger.op(False, f"query {q}: {exc}")
            return None
        lat.append(CLOCK() - t0)
    ledger.op(True)
    return res


def _cold(corpus: Corpus, params, index, vec, request_id: str, tracer,
          ledger: Ledger, lat: list) -> None:
    """One cold-start request: attach, embed, recommend."""
    req = coldstart.ColdStartRequest(key=request_id, features=vec,
                                     k_sim=COLD_K_SIM)
    with _scope(tracer, request_id):
        t0 = CLOCK()
        try:
            theta_s, _theta_t, warm = coldstart.attach_and_embed(
                corpus.g_train, corpus.features, params, req)
            recs = coldstart.recommend_for_cold(theta_s, index, COLD_K)
        except (KeyError, ValueError) as exc:
            ledger.op(False, f"{request_id}: {exc}")
            return
        lat.append(CLOCK() - t0)
    ledger.op(bool(np.isfinite(theta_s).all()) and len(warm) == COLD_K_SIM
              and len(recs) == COLD_K, f"{request_id}: bad result")


def _held_out(corpus: Corpus, count: int) -> np.ndarray:
    """`count` held-out (test-edge) query ids: a seeded permutation of all
    of them, repeated when the catalogue has fewer."""
    held_out = _rng(corpus.seed, TAG_RANK).permutation(
        np.unique(corpus.split.test_edges[:, 0]))
    return held_out[np.arange(count) % len(held_out)]


def run_flow(corpus: Corpus, work: Path, queries: int, ranked: int,
             colds: int, ledger: Ledger, tracer, mrr_floor: bool) -> dict:
    """The in-process user flow; returns its measurements.

    After the epoch, the serving steps run in ROUNDS interleaved rounds
    (embed, a share of the queries, of the ranking and of the cold
    requests), so that each metric samples the whole run rather than one
    stretch of it; the speed of a shared machine drifts over seconds.
    """
    work.mkdir(parents=True, exist_ok=True)
    g_train, features, n = corpus.g_train, corpus.features, corpus.g.num_nodes
    m: dict = {}

    # one epoch: batch loop, validation, checkpoint and train-state writes
    cfg = trainer.TrainConfig(max_epochs=1, root_seed=corpus.seed)
    t0 = CLOCK()
    result = trainer.train(corpus.g_fit, features, cfg, split=corpus.split,
                           out_dir=work)
    m["epoch_s"] = CLOCK() - t0
    hist = result.history
    ledger.op(len(hist) == 1, "training ran no epoch")
    ledger.attempted += math.ceil(len(corpus.g_fit.cp_edges) / cfg.batch_size) - 1
    ledger.check("epoch_finite", bool(hist) and math.isfinite(hist[0].mean_loss)
                 and math.isfinite(hist[0].val_mrr10))
    params = result.params

    qids = _rng(corpus.seed, TAG_QUERIES).integers(0, n, size=queries)
    held_out = _held_out(corpus, ranked)
    cold = cold_features(corpus, colds)
    embed_s, rank_qps = [], []
    query_lat = [[] for _ in range(ROUNDS)]
    cold_lat = [[] for _ in range(ROUNDS)]
    results, rankings = {}, {}
    emb = index = None
    serve_s = 0.0
    for r in range(ROUNDS):
        t_round = CLOCK()
        t0 = CLOCK()
        e = model.embed_all(g_train, features, params)
        embed_s.append(CLOCK() - t0)
        if emb is None:
            emb = e
            index = retrieval.EmbeddingIndex.build(emb, graph=g_train)
        ledger.check("embed_all_repeatable",
                     np.array_equal(e.theta_s, emb.theta_s)
                     and np.array_equal(e.theta_t, emb.theta_t))
        for i in range(r, len(qids), ROUNDS):
            res = _query(index, int(qids[i]), f"query-{i}", tracer, ledger,
                         query_lat[r])
            if res is not None:
                results[int(qids[i])] = res
        chunk = held_out[r::ROUNDS]
        if len(chunk):
            t0 = CLOCK()
            part = evaluation.rank_queries(index, chunk, k=RANK_K)
            rank_qps.append(len(chunk) / (CLOCK() - t0))
            ledger.op(len(part) == len(np.unique(chunk)),
                      "rank_queries lost queries")
            ledger.attempted += len(chunk) - 1
            rankings.update(part)
        for i in range(r, len(cold), ROUNDS):
            _cold(corpus, params, index, cold[i], f"cold-{i}", tracer, ledger,
                  cold_lat[r])
        serve_s += CLOCK() - t_round

    ledger.check("embeddings_finite", bool(np.isfinite(emb.theta_s).all()
                                           and np.isfinite(emb.theta_t).all()))
    # per-round figures, to see how the machine's speed drifted in the run
    m["rounds"] = {
        "embed_s": embed_s, "rank_qps": rank_qps,
        "query_p50_ms": [_percentile(x, 50) * 1e3 for x in query_lat if x],
        "coldstart_p50_ms": [_percentile(x, 50) * 1e3 for x in cold_lat if x]}
    query_lat = [x for lat in query_lat for x in lat]
    cold_lat = [x for lat in cold_lat for x in lat]
    m["embed_nodes_per_s"] = n / statistics.median(embed_s)
    m["query_p50_ms"] = _percentile(query_lat, 50) * 1e3
    m["query_p99_ms"] = _percentile(query_lat, 99) * 1e3
    m["query_samples"] = len(query_lat)
    m["rank_qps"] = statistics.median(rank_qps)
    m["rank_queries"] = len(held_out)
    m["coldstart_p50_ms"] = _percentile(cold_lat, 50) * 1e3
    m["coldstart_p90_ms"] = _percentile(cold_lat, 90) * 1e3
    m["coldstart_samples"] = len(cold_lat)
    test_edges = corpus.split.test_edges
    test_edges = test_edges[np.isin(test_edges[:, 0], held_out)]
    t0 = CLOCK()
    report = evaluation.hitrate_mrr(rankings, test_edges, (10,))
    m["flow_s"] = m["epoch_s"] + serve_s + CLOCK() - t0
    m["heldout_mrr10"] = report.mrr[10]
    if mrr_floor:
        ledger.check("heldout_mrr10_floor", report.mrr[10] >= MRR10_FLOOR,
                     f"({report.mrr[10]:.4f} < {MRR10_FLOOR})")

    sample = _rng(corpus.seed, TAG_ORACLE).choice(
        sorted(results), size=min(ORACLE_QUERIES, len(results)), replace=False)
    for q in sample:
        ids, scores = _oracle_top_k(emb, g_train, int(q), QUERY_K)
        got = results[int(q)]
        ok = [i for i, _ in got] == list(ids) and np.allclose(
            [s for _, s in got], scores, rtol=0, atol=1e-12)
        ledger.check("topk_matches_full_sort", ok, f"(query {q})")
    return m


# --- CLI pipeline ------------------------------------------------------

def run_cli_pipeline(work: Path, seed: int, inputs: dict[str, Path],
                     synth_config: Path | None, ledger: Ledger, tasks):
    """synth -> build-graph -> train (1 epoch) -> embed -> recommend ->
    coldstart -> eval (each of `tasks`), each through cli.main in-process.

    Returns (wall seconds, per-command seconds).
    """
    if work.exists():
        shutil.rmtree(work)
    c, ix, md = work / "corpus", work / "index", work / "model"
    edges, feats = str(c / "edges.tsv"), str(c / "features.tsv")
    s = str(seed)
    synth_args = ["synth", "--out", str(c), "--seed", s]
    if synth_config is not None:
        synth_args += ["--config", str(synth_config)]
    commands = [
        synth_args,
        ["build-graph", "--edges", edges, "--features", feats,
         "--out", str(work / "graph")],
        ["train", "--graph", edges, "--features", feats, "--out", str(md),
         "--epochs", "1", "--seed", s, "--split", "edge", "--split-seed", s],
        ["embed", "--model", str(md), "--graph", str(md / "graph.tsv"),
         "--features", feats, "--out", str(ix)],
        ["recommend", "--index", str(ix), "--query", str(inputs["keys"]),
         "--k", "10", "--filter", "exclude_train_neighbors",
         "--out", str(work / "recs.tsv")],
        ["coldstart", "--model", str(md), "--features", feats,
         "--cold", str(inputs["cold"]), "--k", "10",
         "--out", str(work / "cold_recs.tsv")],
    ] + [["eval", "--task", t, "--model", str(md), "--graph", edges,
          "--features", feats, "--split-seed", s,
          "--out", str(work / f"eval-{t}")] for t in tasks]
    per_cmd: dict[str, float] = {}
    t_start = CLOCK()
    for argv in commands:
        t0 = CLOCK()
        code = cli.main(argv)
        name = argv[0] if argv[0] != "eval" else f"eval-{argv[2]}"
        per_cmd[name] = CLOCK() - t0
        ledger.check("cli_exit_0", code == 0, f"({name} exited {code})")
    return CLOCK() - t_start, per_cmd


def check_cli_outputs(first: Path, second: Path, inputs: dict[str, Path],
                      ledger: Ledger, mrr_floor: bool) -> None:
    for t in EVAL_TASKS:
        path = first / f"eval-{t}" / "metrics.tsv"
        rows = path.read_text(encoding="utf-8").splitlines()[1:] \
            if path.exists() else []
        values = [float(r.split("\t")[1]) for r in rows]
        ledger.check("cli_metrics_finite",
                     bool(values) and all(math.isfinite(v) for v in values),
                     f"({t})")
        if t == "node-rec" and mrr_floor:
            mrr = dict(r.split("\t") for r in rows).get("mrr@10", "nan")
            ledger.check("heldout_mrr10_floor", float(mrr) >= MRR10_FLOOR,
                         f"(cli node-rec mrr@10 {mrr})")
    outputs = [Path("index/embeddings.tsv"), Path("recs.tsv"),
               Path("cold_recs.tsv")] + \
        [Path(f"eval-{t}/metrics.tsv") for t in RERUN_TASKS]
    for rel in outputs:
        a, b = first / rel, second / rel
        same = a.exists() and b.exists() and a.read_bytes() == b.read_bytes()
        ledger.check("cli_rerun_byte_identical", same, f"({rel})")
    keys = inputs["keys"].read_text(encoding="utf-8").split()
    recs = (first / "recs.tsv").read_text(encoding="utf-8").splitlines()
    ledger.check("cli_recommend_complete", len(recs) == 10 * len(keys))


def run_workload(wl: Workload, seed: int, seconds: int, work: Path,
                 tracer, tiny: bool) -> tuple[dict, Ledger]:
    ledger = Ledger()
    cats = TINY_CATEGORIES if tiny else wl.num_categories
    queries, ranked, colds = (max(1, round(rate * seconds)) for rate in
                              (wl.queries_per_s, wl.rank_per_s, wl.cold_per_s))
    m: dict = {}
    with warnings.catch_warnings():
        # zero-embedding queries warn and return nothing; they are counted
        # as empty results, not printed
        warnings.simplefilter("ignore")
        corpus, inputs, m["setup_s"] = setup(wl, seed, cats, work, ledger)
        m["num_products"] = corpus.g.num_nodes
        m["train_cp_edges"] = len(corpus.g_fit.cp_edges)
        mark = len(tracer.spans) if tracer is not None else 0
        warm_up(work)
        if tracer is not None:
            del tracer.spans[mark:]
        if wl.cli:
            synth_config = None
            if tiny:
                synth_config = work / "inputs" / "synth.cfg"
                synth_config.write_text(f"num_categories = {cats}\n",
                                        encoding="utf-8")
            runs = [work / "cli-0", work / "cli-1"]
            for r, tasks in enumerate((EVAL_TASKS, RERUN_TASKS)):
                wall, m[f"cli_commands_run{r}_s"] = run_cli_pipeline(
                    runs[r], seed, inputs, synth_config, ledger, tasks)
                if r == 0:
                    m["pipeline_s"] = wall
            check_cli_outputs(runs[0], runs[1], inputs, ledger, wl.mrr_floor)
        flow = run_flow(corpus, work / "flow", queries, ranked, colds, ledger,
                        tracer, wl.mrr_floor)
    m.update(flow)
    m.setdefault("pipeline_s", flow["flow_s"])
    return m, ledger
