"""What the benchmark reads from the simulator is still there.

``perfbench/spans.py`` wraps simulator functions by name and skips the ones
that no longer exist, so a refactor that renames or deletes one of them
would silently drop it from the per-layer metrics.  ``perfbench`` also counts
packets and applied digests from a result, whether or not the run recorded
its event log.
"""

import importlib.util
from pathlib import Path

import natsim.engine
from natsim.config import build_config

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


def test_unlogged_result_keeps_what_the_benchmark_counts():
    res = natsim.engine.run_simulation(build_config(overrides={
        "trace": "const:12mbps", "duration_s": "2",
        "flows.start_s": "0, 0.5", "flows.ue": "0, 1"}))
    assert isinstance(res.event_log, list) and res.event_log == []
    assert isinstance(res.feedback_log, list) and res.feedback_log
    assert res.drops() == 0
    delivered = sum(f.delivered_bytes for f in res.flows)
    assert delivered > 0
    assert sum(len(f.deliveries) for f in res.flows) == delivered // 1500
