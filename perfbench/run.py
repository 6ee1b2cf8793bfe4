"""asymgraph benchmark.

One workload, as the benchmark contract runs it (from the repository root):

    python3 perfbench/run.py --workload train-10k --seed 1 --seconds 10 --trace 0

prints a report and, as its last line, one JSON object with `correct`,
`attempted`, `failed` and `metrics` (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1).

Every workload, untraced then traced, with a table of all metrics and the
tracing overhead (results go to .perfbench/results.json):

    python3 perfbench/run.py [--seed 1] [--seconds 10]

The package is imported from ./src of the checkout this script sits in;
without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

CONTRACT = ROOT / "BENCHMARK.json"


# Printed with the end-to-end metrics but not gated: the p99 of a ~1 ms
# query follows the machine's hiccup rate (10-run spreads 0.09-0.31 on a
# shared 2-CPU VM), and failed_ratio is 0 on a healthy run.
REPORTED_ONLY = {"query_p99_ms": "ms", "failed_ratio": "ratio"}


def metric_units(kind: str) -> dict[str, str]:
    """name -> unit of the contract's `end_to_end` or `per_layer` metrics."""
    spec = json.loads(CONTRACT.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


# One BLAS thread: every workload has one client, its matrices are at most
# catalogue x 64, and idle OpenBLAS threads spin on the second CPU of the
# 2-CPU box, which made run-to-run times noisier.
BLAS_THREADS = 1


def pin_blas(threads: int) -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)


def commit_id() -> str:
    """HEAD of the checkout's git repository, read without running git;
    'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> dict:
    total = nonblank = 0
    for path in sorted(SRC.rglob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        total += len(lines)
        nonblank += sum(1 for line in lines if line.strip())
    return {"src_lines": total, "src_loc": nonblank}


def environment() -> dict:
    import numpy
    import scipy
    return {"blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "commit": commit_id(), **src_lines()}


def print_report(detail: dict) -> None:
    """End-to-end metrics with units, failures, sample counts and checks."""
    m = detail["measured"]
    for name, unit in {**metric_units("end_to_end"), **REPORTED_ONLY}.items():
        print(f"  {name:<36s} {m[name]:>14.4f} {unit}")
    print(f"  failed {detail['failed']} of {detail['attempted']} attempted")
    print(f"  samples: {m['query_samples']} queries, {m['rank_queries']} "
          f"ranked, {m['coldstart_samples']} cold requests")
    print("  checks: " + ", ".join(f"{k}={v}" for k, v in detail["checks"].items()))


def run_one(args) -> int:
    pin_blas(BLAS_THREADS)
    os.environ["ASYMGRAPH_LOG"] = "error"
    sys.path.insert(0, str(SRC))
    import asymgraph
    if Path(asymgraph.__file__).resolve().parent != SRC / "asymgraph":
        print(f"error: asymgraph imported from {asymgraph.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import flows
    import spans

    wl = flows.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(flows.WORKLOADS)}", file=sys.stderr)
        return 1
    work = OUT / "work" / f"{wl.name}-{os.getpid()}"
    tracer, absent, undo = None, [], []
    if args.trace:
        tracer = spans.Tracer()
        absent, undo = spans.install(tracer)
    try:
        m, ledger = flows.run_workload(wl, args.seed, args.seconds, work,
                                       tracer, args.scale == "tiny")
    finally:
        spans.uninstall(undo)
        shutil.rmtree(work, ignore_errors=True)
    # ru_maxrss is in KiB on Linux
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    m["failed_ratio"] = ledger.failed / ledger.attempted

    detail = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": args.scale,
              "env": environment(), "measured": m,
              "attempted": ledger.attempted, "failed": ledger.failed,
              "checks": ledger.checks, "errors": ledger.errors[:20]}
    end_to_end = metric_units("end_to_end")
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}")
    print_report(detail)
    result_metrics = {n: {"value": m[n], "unit": u}
                      for n, u in end_to_end.items()}
    if tracer is not None:
        layers = spans.layer_metrics(tracer.spans)
        detail["layers"] = layers
        detail["absent"] = absent
        detail["epoch_layer_share"] = spans.subtree_share(tracer.spans,
                                                          "trainer.train")
        trace_dir = OUT / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace_path = trace_dir / f"{wl.name}-seed{args.seed}.jsonl"
        tracer.dump_jsonl(trace_path)
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
        for name in sorted(layers):
            unit = "s" if name.endswith("_s") or "_s." in name else "count"
            print(f"  {name:<36s} {layers[name]:>14.4f} {unit}")
        if absent:
            print(f"  absent: {', '.join(absent)}")
        result_metrics = {n: {"value": layers[n], "unit": u}
                          for n, u in metric_units("per_layer").items()
                          if n in layers}
    print("detail: " + json.dumps(detail, sort_keys=True))
    correct = ledger.failed == 0 and all(ledger.checks.values())
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": result_metrics}))
    return 0


def _child(args, workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(trace), "--scale", args.scale]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    detail = next(json.loads(line[len("detail: "):]) for line in lines
                  if line.startswith("detail: "))
    return {"detail": detail, "result": json.loads(lines[-1])}


def run_suite(args) -> int:
    """Every workload untraced then traced, each in its own process (peak
    RSS is per process), then one table of every metric."""
    sys.path.insert(0, str(SRC))
    pin_blas(BLAS_THREADS)
    import flows

    report = {}
    for name in flows.WORKLOADS:
        plain, traced = _child(args, name, 0), _child(args, name, 1)
        m, tm = plain["detail"]["measured"], traced["detail"]["measured"]
        overhead = {k: tm[k] / m[k] - 1.0 for k in ("epoch_s", "pipeline_s")}
        report[name] = {"untraced": plain, "traced": traced,
                        "tracing_overhead": overhead}
        print(f"== {name} (seed {args.seed}, correct {plain['result']['correct']}"
              f" / traced {traced['result']['correct']})")
        print_report(plain["detail"])
        for metric, value in sorted(traced["detail"]["layers"].items()):
            print(f"  {metric:<36s} {value:>14.4f}")
        share = traced["detail"]["epoch_layer_share"]
        print(f"  layers below trainer.train explain {share:.1%} of the epoch")
        print("  tracing overhead: " + ", ".join(
            f"{k} {v:+.1%}" for k, v in overhead.items()))
    env = report[next(iter(report))]["untraced"]["detail"]["env"]
    print("env: " + json.dumps(env, sort_keys=True))
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "results.json", "w", encoding="utf-8") as f:
        json.dump({"env": env, "workloads": report}, f, indent=1, sort_keys=True)
    print(f"wrote {(OUT / 'results.json').relative_to(ROOT)}")
    ok = all(r[mode]["result"]["correct"] for r in report.values()
             for mode in ("untraced", "traced"))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10,
                    help="sizes the request streams (see perfbench/README.md)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: a few categories per corpus (smoke test)")
    args = ap.parse_args(argv)
    if not (CONTRACT.is_file() and (SRC / "asymgraph" / "__init__.py").is_file()):
        print(f"error: need {CONTRACT.name} and the asymgraph package under "
              f"{SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_suite(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
