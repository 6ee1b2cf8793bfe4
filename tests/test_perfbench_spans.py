"""The benchmark's span wrappers still find every package function they
time, so a refactor cannot silently drop a benchmark span."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).parent.parent / "perfbench" / "spans.py"


def test_every_span_target_exists():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    absent, undo = spans.install(spans.Tracer())
    try:
        assert absent == []
    finally:
        spans.uninstall(undo)
