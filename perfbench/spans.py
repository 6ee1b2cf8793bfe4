"""Spans recorded from outside the package, around its public functions.

Each wrapped call records a span: name, start, end, parent span and the
request id of the query or cold-start request it serves. Spans stay in
memory and are written as JSONL at the end of a run. A layer's busy time
is the self time of its spans: duration minus the part of the interval
its child spans cover.

Wrappers replace a function wherever an ``asymgraph`` module binds it by
name (``trainer.sample_blocks``, ``cli.embed_all``, ...), so every caller
is seen. A target that no longer exists is reported as absent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._local = threading.local()
        self._main_stack: list[dict] = []
        self._lock = threading.Lock()
        self.request: str | None = None

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if is_main else []
            self._local.stack = stack
        return stack

    def open(self, name: str) -> dict:
        stack = self._stack()
        # spans opened on a worker thread (the retrieval thread pool)
        # belong to the span that is open on the main thread
        parent = stack[-1] if stack else (
            self._main_stack[-1] if self._main_stack else None)
        span = {"name": name,
                "parent": parent["id"] if parent else None,
                "request": parent["request"] if parent else self.request,
                "thread": threading.get_ident(),
                "start": time.perf_counter(), "end": None, "counts": {}}
        with self._lock:
            span["id"] = len(self.spans)
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    @contextlib.contextmanager
    def request_scope(self, request_id: str):
        """Spans opened inside belong to request `request_id`."""
        self.request = request_id
        try:
            yield
        finally:
            self.request = None

    def dump_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps(s, sort_keys=True) + "\n")


def _wrap(tracer: Tracer, name, fn, count=None):
    """Span around fn; `name` may be a function of the call's arguments."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name(args, kwargs) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if count is not None:
            try:
                span["counts"] = count(result, args, kwargs)
            except (AttributeError, IndexError, TypeError, ValueError):
                pass  # a changed return shape drops the count, not the run
        return result

    return wrapper


# --- work counts taken from returned objects ---------------------------

def _blocks_counts(blocks, _args, _kwargs):
    levels = blocks.levels
    frontier = sum(len(blk.nodes) for blk in levels[0].values())
    edges = sum(int(blk.cp_ptr[-1]) + int(blk.cv_ptr[-1])
                for lvl in levels[1:] for blk in lvl.values())
    return {"sampler.frontier_nodes": frontier, "sampler.sampled_edges": edges}


def _train_counts(result, args, kwargs):
    g = args[0] if args else kwargs["g"]
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    epochs = len(result.history)
    edges = len(g.cp_edges)
    return {"trainer.batches": epochs * math.ceil(edges / cfg.batch_size),
            "trainer.cp_edges_trained": epochs * edges}


def _query_counts(result, _args, _kwargs):
    return {"retrieval.queries": 1,
            "retrieval.empty_results": int(len(result) == 0)}


def _task_name(args, kwargs):
    task = args[0] if args else kwargs.get("task", "unknown")
    return f"evaluation.run_task.{task}"


# (module, attribute, span name, counter). Span names are the metric
# names without the `_s` suffix.
TARGETS = [
    ("synth", "generate", "synth.generate", None),
    ("graph", "build_graph", "graph.build_graph", None),
    ("graph", "load_edge_file", "graph.load_edge_file", None),
    ("graph", "load_feature_file", "graph.load_feature_file", None),
    ("graph", "dump_edge_file", "graph.dump_edge_file", None),
    ("graph", "one_way_mask", "graph.one_way_mask", None),
    ("sampler", "sample_blocks", "sampler.sample_blocks", _blocks_counts),
    ("sampler", "full_blocks", "sampler.full_blocks", _blocks_counts),
    ("sampler", "sample_negatives", "sampler.sample_negatives",
     lambda r, a, k: {"sampler.negatives": int(r.size)}),
    ("model", "forward", "model.forward", None),
    ("model", "backward", "model.backward", None),
    ("model", "embed_all", "model.embed_all", None),
    ("model", "save_checkpoint", "model.save_checkpoint", None),
    ("model", "load_checkpoint", "model.load_checkpoint", None),
    ("model", "dump_embeddings", "model.dump_embeddings", None),
    ("model", "load_embeddings", "model.load_embeddings", None),
    ("loss", "asymmetric_loss", "loss.asymmetric_loss", None),
    ("loss", "loss_grad", "loss.loss_grad", None),
    ("trainer", "train", "trainer.train", _train_counts),
    ("trainer", "adam_step", "trainer.adam_step", None),
    ("trainer", "validation_mrr10", "trainer.validation_mrr10", None),
    ("trainer", "save_train_state", "trainer.save_train_state", None),
    ("retrieval", "EmbeddingIndex.build", "retrieval.index_build", None),
    ("retrieval", "recommend_related", "retrieval.recommend_related",
     _query_counts),
    ("retrieval", "batch_recommend", "retrieval.batch_recommend", None),
    ("retrieval", "top_k_by_score", "retrieval.top_k_by_score", None),
    ("coldstart", "attach_and_embed", "coldstart.attach_and_embed",
     lambda r, a, k: {"coldstart.requests": 1}),
    ("coldstart", "find_warm_neighbors", "coldstart.find_warm_neighbors", None),
    ("coldstart", "recommend_for_cold", "coldstart.recommend_for_cold", None),
    ("evaluation", "run_task", _task_name, None),
    ("evaluation", "rank_queries", "evaluation.rank_queries", None),
    ("evaluation", "hitrate_mrr", "evaluation.hitrate_mrr", None),
    ("evaluation", "make_edge_split", "evaluation.split", None),
    ("evaluation", "make_node_split", "evaluation.split", None),
    ("evaluation", "make_selection_bias_split", "evaluation.split", None),
    ("evaluation", "train_graph", "evaluation.train_graph", None),
    ("evaluation", "sample_non_edges", "evaluation.sample_non_edges", None),
] + [("cli", f"cmd_{cmd.replace('-', '_')}", f"cli.{cmd}", None)
     for cmd in ("synth", "build-graph", "train", "embed", "recommend",
                 "coldstart", "eval")]


def install(tracer: Tracer) -> tuple[list[str], list]:
    """Wrap every target wherever it is bound by name.

    Returns (absent target names, undo list for `uninstall`).
    """
    for mod in ("synth", "graph", "sampler", "model", "loss", "trainer",
                "retrieval", "coldstart", "evaluation", "cli"):
        importlib.import_module(f"asymgraph.{mod}")
    package = [m for n, m in list(sys.modules.items()) if m is not None
               and (n == "asymgraph" or n.startswith("asymgraph."))]
    absent, undo = [], []
    for mod_name, attr, name, count in TARGETS:
        owner = sys.modules[f"asymgraph.{mod_name}"]
        cls_name, _, attr = attr.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name, None)
        raw = owner.__dict__.get(attr) if owner is not None else None
        if raw is None:
            absent.append(".".join(x for x in (mod_name, cls_name, attr) if x))
            continue
        if isinstance(raw, classmethod):
            wrapped = classmethod(_wrap(tracer, name, raw.__func__, count))
            undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            continue
        wrapper = _wrap(tracer, name, raw, count)
        for mod in package:
            for key, val in list(vars(mod).items()):
                if val is raw:
                    undo.append((mod, key, raw))
                    setattr(mod, key, wrapper)
    return absent, undo


def uninstall(undo) -> None:
    for owner, key, raw in reversed(undo):
        setattr(owner, key, raw)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals (child spans may overlap when a
    thread pool runs them)."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer busy (self) seconds, call counts and work counts.

    `sampler.sample_blocks` called by `sampler.full_blocks` is booked to
    full_blocks, the uncapped path. A work count is booked once, at the
    outermost span that reports it.
    """
    by_id = {s["id"]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None and s["end"] is not None:
            children[s["parent"]].append(s)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        if s["end"] is None:
            continue
        kids = [(max(c["start"], s["start"]), min(c["end"], s["end"]))
                for c in children[s["id"]]]
        busy = _covered([k for k in kids if k[1] > k[0]])
        self_s = (s["end"] - s["start"]) - busy
        name = s["name"]
        parent = by_id.get(s["parent"])
        if name == "sampler.sample_blocks" and parent is not None \
                and parent["name"] == "sampler.full_blocks":
            name = "sampler.full_blocks"
        elif not name.startswith("evaluation.run_task."):
            out[f"{name}_calls"] += 1
        out[_time_key(name)] += self_s
        for ckey, val in s["counts"].items():
            if not _ancestor_counts(by_id, s, ckey):
                out[ckey] += val
    return dict(out)


def _time_key(name: str) -> str:
    if name.startswith("evaluation.run_task."):
        return "evaluation.run_task_s." + name.rpartition(".")[2]
    if name == "trainer.train":
        return "trainer.train_self_s"
    return f"{name}_s"


def _ancestor_counts(by_id, span, key) -> bool:
    p = by_id.get(span["parent"])
    while p is not None:
        if key in p["counts"]:
            return True
        p = by_id.get(p["parent"])
    return False


def subtree_share(spans: list[dict], root_name: str) -> float | None:
    """Share of the `root_name` spans' time that their child spans cover:
    how much of, e.g., the epoch the layers below the trainer explain."""
    by_parent = defaultdict(list)
    for s in spans:
        by_parent[s["parent"]].append(s)
    roots = [s for s in spans
             if s["name"] == root_name and s["end"] is not None]
    if not roots:
        return None
    total = sum(r["end"] - r["start"] for r in roots)
    covered = 0.0
    for r in roots:
        covered += _covered([(c["start"], c["end"]) for c in by_parent[r["id"]]
                             if c["end"] is not None])
    return covered / total if total > 0 else None
