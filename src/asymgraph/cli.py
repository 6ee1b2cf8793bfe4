"""Command-line entry point.

One binary, subcommand style: synth, build-graph, train, embed,
recommend, coldstart, eval. Exit codes: 0 success, 1 usage error,
2 data/format error, 3 numerical failure. Logs go to stderr (level from
ASYMGRAPH_LOG), data goes to files or stdout. Every command that owns an
output directory checks its inputs against each other first, so a refused
command leaves that directory as it was; then it writes a run manifest
there before any other output.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import logging
import os
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from . import (BLAS_THREAD_VARS, __version__, coldstart, evaluation, formats,
               retrieval, synth, trainer)
from .errors import DataFormatError, NumericalError
from .graph import (build_graph, dump_edge_file, graph_stats, load_edge_file,
                    load_feature_file)
from .model import (embed_all, dump_embeddings, load_checkpoint,
                    load_embeddings)
from .util import atomic_write, sha256_file

log = logging.getLogger("asymgraph")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage problems; we reserve 2 for data errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(EXIT_USAGE)


def _int_at_least(low: int):
    """An argparse type for ints of at least `low`, so a bad count or seed
    is a usage error before any input is read."""
    def parse(text: str) -> int:
        if not text.removeprefix("-").isdecimal() or int(text) < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, got {text!r}")
        return int(text)
    return parse


_positive, _non_negative = _int_at_least(1), _int_at_least(0)


def _ks(text: str) -> tuple[int, ...]:
    return tuple(map(_positive, text.split(",")))


def _setup_logging() -> None:
    level = os.environ.get("ASYMGRAPH_LOG", "info").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}
    logging.basicConfig(stream=sys.stderr,
                        level=levels.get(level, logging.INFO),
                        format="%(levelname)s %(name)s: %(message)s")


def write_manifest(out_dir: Path, command: str, config: dict,
                   seeds: dict, inputs: dict[str, str]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "artifact_version": __version__,
        "command": command,
        "config": config,
        "seeds": seeds,
        "input_digests": {name: sha256_file(p) for name, p in inputs.items()
                          if p and Path(p).exists()},
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "blas": {key: np.show_config(mode="dicts")["Build Dependencies"]
                 ["blas"].get(key) for key in ("name", "version")},
    }
    with atomic_write(out_dir / "manifest.json") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def _load_graph(edges_path, features_path):
    features, km = load_feature_file(features_path)
    cp, cv, _ = load_edge_file(edges_path, key_map=km)
    g = build_graph(cp, cv, len(km))
    return g, features, km


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------

def cmd_synth(args) -> int:
    cfg = formats.load_config(args.config, synth.SynthConfig) if args.config \
        else synth.SynthConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    out = Path(args.out)
    write_manifest(out, "synth", dataclasses.asdict(cfg),
                   {"seed": cfg.seed}, {"config": args.config})
    data = synth.generate(cfg)
    paths = synth.write_corpus(data, out)
    log.info("wrote %d products, %d cp edges, %d cv pairs to %s",
             len(data.key_map), len(data.cp_pairs), len(data.cv_pairs), out)
    for name, p in paths.items():
        log.debug("%s: %s", name, p)
    return EXIT_OK


def cmd_build_graph(args) -> int:
    if args.features:
        g, _features, km = _load_graph(args.edges, args.features)
    else:
        cp, cv, km = load_edge_file(args.edges)
        g = build_graph(cp, cv, len(km))
    out = Path(args.out)
    write_manifest(out, "build-graph", {"edges": args.edges,
                                        "features": args.features},
                   {}, {"edges": args.edges, "features": args.features})
    dump_edge_file(g, km, out / "graph.tsv")
    stats = graph_stats(g)
    with atomic_write(out / "stats.tsv") as f:
        for fld in dataclasses.fields(stats):
            f.write(f"{fld.name}\t{getattr(stats, fld.name)}\n")
    log.info("graph: %d nodes, %d cp edges, %d cv edges (avg degree %.2f, "
             "one-way pair share %.3f)", stats.num_nodes, stats.num_cp_edges,
             stats.num_cv_edges, stats.avg_degree, stats.one_way_pair_share)
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = formats.load_config(args.config, trainer.TrainConfig) if args.config \
        else trainer.TrainConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, root_seed=args.seed)
    if args.epochs is not None:
        cfg = dataclasses.replace(cfg, max_epochs=args.epochs)
    g, features, km = _load_graph(args.graph, args.features)
    split = evaluation.make_split(args.split, g, seed=args.split_seed)
    g_train = evaluation.train_graph(g, split, use_coview=not args.no_coview)
    # refuse inputs that do not fit together before writing anything
    trainer.check_inputs(g_train, features)
    state = None
    if args.resume:
        state = trainer.resume(args.resume)
        trainer.check_resumable(state, cfg, g_train, features)
        now = {v: os.environ.get(v) for v in BLAS_THREAD_VARS}
        seen = Path(args.resume).parent / "manifest.json"
        seen = json.loads(seen.read_text("utf-8")) if seen.exists() else {}
        if seen.get("blas_threads", now) != now:
            log.warning("BLAS thread setting %s differs from the state's run "
                        "(%s); its bits may differ", now, seen["blas_threads"])
    out = Path(args.out)
    write_manifest(out, "train", dataclasses.asdict(cfg),
                   {"root_seed": cfg.root_seed, "split_seed": args.split_seed,
                    "split": args.split, "no_coview": args.no_coview},
                   {"graph": args.graph, "features": args.features,
                    "config": args.config})
    formats.save_config(cfg, out / "config.txt")
    dump_edge_file(g_train, km, out / "graph.tsv")
    with open(out / "train_log.tsv", "a" if args.resume else "w",
              encoding="utf-8") as log_stream:
        result = trainer.train(g_train, features, cfg, split=split,
                               out_dir=out, state=state,
                               log_stream=log_stream)
    last = result.history[-1] if result.history else None
    if last is not None:
        log.info("finished at epoch %d: mean loss %.4f, val MRR@10 %s",
                 last.epoch, last.mean_loss,
                 f"{last.val_mrr10:.4f}" if last.val_mrr10 is not None else "n/a")
    return EXIT_OK


def cmd_embed(args) -> int:
    g, features, km = _load_graph(args.graph, args.features)
    params = load_checkpoint(Path(args.model) / "model.ckpt")
    emb = embed_all(g, features, params)  # refuses before anything is written
    out = Path(args.out)
    write_manifest(out, "embed", {}, {},
                   {"graph": args.graph, "features": args.features,
                    "model": str(Path(args.model) / "model.ckpt")})
    dump_embeddings(emb, km, out / "embeddings.tsv")
    # keep the graph next to the embeddings so the directory works as a
    # self-contained index (needed by the train-neighbor filter)
    dump_edge_file(g, km, out / "graph.tsv")
    log.info("embedded %d products into %s", g.num_nodes, out)
    return EXIT_OK


def _output(path):
    """`path`, written whole or not at all (`atomic_write`), or stdout
    (streamed, left open) when not given."""
    return atomic_write(path) if path else contextlib.nullcontext(sys.stdout)


def _emit_recommendations(stream, query_key, results, km) -> None:
    for rank, (idx, score) in enumerate(results, start=1):
        stream.write(f"{query_key}\t{rank}\t{km.key_of(idx)}\t{score:.6f}\n")


def cmd_recommend(args) -> int:
    index_dir = Path(args.index)
    emb, km = load_embeddings(index_dir / "embeddings.tsv")
    graph = None
    if args.filter == "exclude_train_neighbors":
        graph_path = index_dir / "graph.tsv"
        if not graph_path.exists():
            raise DataFormatError(
                f"{graph_path}: missing; the exclude_train_neighbors filter "
                "needs the training graph next to the embeddings")
        cp, cv, _ = load_edge_file(graph_path, key_map=km)
        graph = build_graph(cp, cv, len(km))
    index = retrieval.EmbeddingIndex.build(emb, graph=graph)
    if args.query in km or not Path(args.query).exists():
        keys = [args.query]
    else:
        # a key keeps its spaces: only the line break (`\n` or `\r\n`)
        # goes, and empty lines are skipped
        keys = [s for _, s in formats.text_lines(args.query) if s]
    unknown = [k for k in keys if k not in km]
    if unknown:
        raise DataFormatError(f"unknown product keys: {unknown[:5]}")
    ids = [km.id_of(k) for k in keys]
    with warnings.catch_warnings():
        # reported below through the logger, by key
        warnings.filterwarnings("ignore", "a query has a zero embedding")
        rankings = retrieval.batch_recommend(
            index, ids, args.k, filter=args.filter, mode=args.mode)
    for key in dict.fromkeys(keys):
        if not index.theta_s[km.id_of(key)].any():
            log.warning("query %r has a zero embedding; it gets no "
                        "recommendations", key)
    with _output(args.out) as out:
        for key, results in zip(keys, rankings):
            _emit_recommendations(out, key, results, km)
    return EXIT_OK


def cmd_coldstart(args) -> int:
    graph_path = args.graph or str(Path(args.model) / "graph.tsv")
    g, features, km = _load_graph(graph_path, args.features)
    params = load_checkpoint(Path(args.model) / "model.ckpt")
    cold_features, cold_km = load_feature_file(args.cold)
    # every cold row is checked before anything is embedded or written
    if cold_features.shape[1] != features.shape[1]:
        raise DataFormatError(f"{args.cold}: {cold_features.shape[1]} "
                              f"features a row, not {features.shape[1]}")
    if not cold_features.any(axis=1).all():
        key = cold_km.key_of(int(cold_features.any(axis=1).argmin()))
        line = next(i for i, s in formats.text_lines(args.cold)
                    if i > 1 and s.split("\t", 1)[0] == key)
        raise DataFormatError(f"{args.cold}: cold-start feature vector of "
                              f"{key!r} on line {line} is all zeros")
    emb = embed_all(g, features, params)
    index = retrieval.EmbeddingIndex.build(emb, graph=g)
    with _output(args.out) as out:
        for start, recs, warm in coldstart.recommend_cold_blocks(
                g, features, params, index, cold_features, args.k, args.k_sim):
            for i, (results, ids) in enumerate(zip(recs, warm), start):
                log.debug("cold %s attached to %s", cold_km.key_of(i),
                          [km.key_of(int(w)) for w in ids])
                _emit_recommendations(out, cold_km.key_of(i), results, km)
    return EXIT_OK


def cmd_eval(args) -> int:
    g, features, km = _load_graph(args.graph, args.features)
    params = load_checkpoint(Path(args.model) / "model.ckpt")
    # the task refuses what it cannot evaluate before anything is written
    report = evaluation.run_task(
        args.task, g, features, params, split_seed=args.split_seed, ks=args.ks,
        use_coview=not args.no_coview)
    out = Path(args.out)
    write_manifest(out, "eval",
                   {"task": args.task, "ks": list(args.ks),
                    "no_coview": args.no_coview},
                   {"split_seed": args.split_seed},
                   {"graph": args.graph, "features": args.features,
                    "model": str(Path(args.model) / "model.ckpt")})
    rows = report.rows()
    with atomic_write(out / "metrics.tsv") as f:
        f.write("metric\tvalue\n")
        for name, value in rows:
            f.write(f"{name}\t{value:.12g}\n")
    with atomic_write(out / "summary.txt") as f:
        f.write(f"task: {args.task}\n")
        f.write("inference graph: train edges only "
                "(validation and test edges excluded)\n")
        for name, value in rows:
            f.write(f"  {name:<24s} {value:.6f}\n")
    for name, value in rows:
        log.info("%s = %.6f", name, value)
    return EXIT_OK


# ----------------------------------------------------------------------
# Parser wiring
# ----------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="asymgraph",
                     description="Dual-embedding GNN recommender toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--config", help="synth config file (key = value lines)")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_non_negative, default=None)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("build-graph", help="validate and dump a product graph")
    p.add_argument("--edges", required=True)
    p.add_argument("--features", help="feature file defining the id universe")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_build_graph)

    p = sub.add_parser("train", help="train the model")
    p.add_argument("--graph", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--config", help="train config file")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=_non_negative, default=None,
                   help="root seed override")
    p.add_argument("--epochs", type=_positive, default=None,
                   help="max epoch override")
    p.add_argument("--split", choices=list(evaluation.SPLITS), default="edge")
    p.add_argument("--split-seed", type=_non_negative, default=0)
    p.add_argument("--no-coview", action="store_true",
                   help="train on co-purchase edges only")
    p.add_argument("--resume", help="training-state file to continue from")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("embed", help="dump embeddings for every product")
    p.add_argument("--model", required=True, help="train output directory")
    p.add_argument("--graph", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("recommend", help="query top-k recommendations")
    p.add_argument("--index", required=True,
                   help="directory with embeddings.tsv (and graph.tsv)")
    p.add_argument("--query", required=True, help="product key or file of keys")
    p.add_argument("--k", type=_positive, default=10)
    p.add_argument("--mode", choices=list(retrieval.MODES), default="related")
    p.add_argument("--filter", choices=list(retrieval.FILTERS), default="none")
    p.add_argument("--out", help="output TSV (default stdout)")
    p.set_defaults(fn=cmd_recommend)

    p = sub.add_parser("coldstart", help="recommend for cold products")
    p.add_argument("--model", required=True, help="train output directory")
    p.add_argument("--graph",
                   help="graph file (default: graph.tsv in the model dir)")
    p.add_argument("--features", required=True)
    p.add_argument("--cold", required=True, help="cold feature file")
    p.add_argument("--k", type=_positive, default=10)
    p.add_argument("--k-sim", type=_positive, default=5)
    p.add_argument("--out", help="output TSV (default stdout)")
    p.set_defaults(fn=cmd_coldstart)

    p = sub.add_parser("eval", help="run an offline evaluation task")
    p.add_argument("--task", choices=list(evaluation.TASKS), required=True)
    p.add_argument("--model", required=True, help="train output directory")
    p.add_argument("--graph", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--split-seed", type=_non_negative, default=0)
    p.add_argument("--ks", type=_ks, default="5,10,20")
    p.add_argument("--no-coview", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_eval)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except NumericalError as exc:
        log.error("numerical failure: %s", exc)
        return EXIT_NUMERIC
    except (DataFormatError, FileNotFoundError, ValueError, KeyError) as exc:
        log.error("%s", exc)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
