"""The benchmark's span wrappers still find every name they target.

``perfbench/spans.py`` wraps simulator functions by name and skips the ones
that no longer exist, so a refactor that renames or deletes one of them
would silently drop it from the per-layer metrics.
"""

import importlib.util
from pathlib import Path

import natsim.engine

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_exists():
    spans = load_spans()
    original = natsim.engine.Simulation._emit_feedback
    restore, missing = spans.instrument(spans.SpanRecorder())
    try:
        assert missing == []
    finally:
        restore()
    assert natsim.engine.Simulation._emit_feedback is original
