"""Smoke test of the benchmark itself.

Runs every workload at a tiny size, untraced and traced, and checks that
each run prints the contract's result line with every metric named in
BENCHMARK.json and its unit, that the correctness checks ran and passed,
and that the benchmark refuses to run without the package source.

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"

FLOW_CHECKS = {"setup_corpus_nonempty", "epoch_finite", "embed_all_repeatable",
               "embeddings_finite", "topk_matches_full_sort"}
EXPECTED_CHECKS = {
    "train-10k": FLOW_CHECKS | {"heldout_mrr10_floor"},
    "serve-10k-mixed": FLOW_CHECKS,
    "pipeline-2k": FLOW_CHECKS | {"heldout_mrr10_floor", "cli_exit_0",
                                  "cli_metrics_finite", "cli_rerun_byte_identical",
                                  "cli_recommend_complete"},
}


def run(cmd, cwd) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run([sys.executable, str(RUN), "--workload", workload, "--seed", "3",
                "--seconds", "1", "--trace", str(trace), "--scale", "tiny"], ROOT)
    where = f"{workload} trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-1500:]}"]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    detail = next(json.loads(x[len("detail: "):]) for x in lines
                  if x.startswith("detail: "))
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 \
            or result["attempted"] < 1:
        problems.append(f"{where}: not correct: {detail['errors']}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result["metrics"]
    if set(got) != {m["name"] for m in wanted}:
        problems.append(f"{where}: metric names differ: "
                        f"{sorted(set(got) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        entry = got.get(m["name"])
        if entry is not None and (entry["unit"] != m["unit"]
                                  or not isinstance(entry["value"], (int, float))):
            problems.append(f"{where}: {m['name']} reported as {entry}")
    missing = EXPECTED_CHECKS[workload] - set(detail["checks"])
    if missing:
        problems.append(f"{where}: checks did not run: {sorted(missing)}")
    for name in ("failed_ratio", "query_p99_ms", "query_samples",
                 "coldstart_samples"):
        if name not in detail["measured"]:
            problems.append(f"{where}: no {name}")
    if trace and detail["absent"]:
        problems.append(f"{where}: absent wrap targets {detail['absent']}")
    print(f"{where}: {'ok' if not problems else 'FAILED'}")
    return problems


def check_refuses_without_source(spec: dict) -> list[str]:
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files, the benchmark must fail and print no result."""
    bare = ROOT / ".perfbench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in spec["paths"]:
            shutil.copytree(ROOT / p, bare / p,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(spec["command"] + ["--workload", "train-10k", "--seed", "1",
                                      "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    ok = proc.returncode != 0 and "correct" not in proc.stdout
    print(f"bare checkout refused: {'ok' if ok else 'FAILED'}")
    return [] if ok else [f"bare checkout: exit {proc.returncode}, "
                          f"stdout {proc.stdout[-500:]!r}"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_refuses_without_source(spec)
    for wl in spec["workloads"]:
        for trace in (0, 1):
            problems += check_run(spec, wl["name"], trace)
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
