"""Self-tests of the benchmark's own arithmetic, checks and digests."""

import math
import sys

import pytest

from natsim import config, engine

from spans import SpanRecorder, instrument
from stats import deep_size, nearest_rank, tail_quantile, timing_metrics
from workloads import SimHook, audit, walk_trace

SMALL = {"scheme": "natcp", "trace": "const:12mbps", "duration_s": "2", "seed": "3"}


def fake_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_of_nested_spans_telescopes():
    rec = SpanRecorder(clock=fake_clock(0.0, 1.0, 3.0, 4.0, 6.0, 10.0))
    inner = rec.wrap("b", "b.inner", lambda: None, sample="b")

    def body():
        inner()
        inner()

    rec.wrap("a", "a.outer", body)()
    assert rec.self_s == {"a": 6.0, "b": 4.0}
    assert sum(rec.self_s.values()) == 10.0  # the root span's duration
    assert rec.calls == {"a.outer": 1, "b.inner": 2}
    assert rec.samples["b"] == [2.0, 2.0]


def test_nested_call_within_a_layer_is_not_an_entry_sample():
    rec = SpanRecorder(clock=fake_clock(0.0, 1.0, 2.0, 5.0))
    helper = rec.wrap("a", "a.helper", lambda: None, sample="a")
    rec.wrap("a", "a.outer", helper, sample="a")()
    assert rec.self_s == {"a": 5.0}
    assert rec.samples["a"] == [5.0]


def test_span_charges_time_when_the_wrapped_call_raises():
    rec = SpanRecorder(clock=fake_clock(0.0, 2.0))

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        rec.wrap("a", "a.boom", boom)()
    assert rec.self_s == {"a": 2.0} and rec._stack == []


def test_tail_quantile_needs_ten_samples_beyond_it():
    assert tail_quantile(10_000) == (999, 1000)
    assert tail_quantile(9_999) == (99, 100)
    assert tail_quantile(1_000) == (99, 100)
    assert tail_quantile(999) == (9, 10)
    assert tail_quantile(100) == (9, 10)
    assert tail_quantile(99) == (1, 2)
    assert tail_quantile(0) == (1, 2)


def test_nearest_rank_uses_exact_integer_ranks():
    ordered = list(range(1, 1001))
    assert nearest_rank(ordered, 99, 100) == 990  # 0.99 * 1000 is not exact in floats
    assert nearest_rank(ordered, 1, 2) == 500
    assert nearest_rank([7], 999, 1000) == 7


def test_timing_metrics_report_median_tail_and_count():
    samples = [i * 1e-6 for i in range(1, 201)]  # 1..200 us
    m = timing_metrics("x.call", samples)
    assert m["x.call_n"] == (200, "count")
    assert m["x.call_tail_q"] == (0.9, "ratio")
    assert m["x.call_us_p50"][0] == pytest.approx(100)
    assert m["x.call_us_tail"][0] == pytest.approx(180)


def test_deep_size_counts_shared_objects_once():
    shared = list(range(1000, 1100))
    assert deep_size([shared, shared]) == deep_size([shared]) + 8
    assert deep_size((1.5,)) == sys.getsizeof((1.5,)) + sys.getsizeof(1.5)


def _run(spans=None):
    hook = SimHook(spans=spans)
    hook.run_simulation(config.build_config(None, SMALL))
    return hook


def test_digest_is_stable_across_two_runs():
    first, second = _run(), _run()
    assert first.digests == second.digests and len(first.digests) == 1
    assert first.violations == [] and second.violations == []


def test_traced_run_has_the_untraced_digest_and_restores_the_code():
    original = engine.Simulation.run
    rec = SpanRecorder()
    restore, missing = instrument(rec)
    try:
        traced = _run(spans=rec)
    finally:
        restore()
    assert missing == []
    assert engine.Simulation.run is original
    assert traced.digests == _run().digests
    assert rec.calls["engine.Simulation.run"] == 1
    assert traced.run_calls["engine.EventLoop.run_until"] == 1


def test_audit_flags_broken_invariants():
    sim = engine.Simulation(config.build_config(None, SMALL))
    result = sim.run()
    row = result.summary_row()
    assert audit(sim, result, row) == []
    queue = next(iter(sim.link.queues.values()))
    queue.occupancy += 1
    row["power"] = math.inf
    result.flows[0].unique_bytes = 10 ** 12
    assert len(audit(sim, result, row)) == 3


def test_walk_trace_is_seeded_and_offers_a_fixed_capacity():
    assert walk_trace(5) == walk_trace(5)
    assert walk_trace(5) != walk_trace(6)
    for seed in (5, 6):
        stamps = [int(line) for line in walk_trace(seed).split()]
        assert len(stamps) == 40_000
        assert stamps == sorted(stamps) and stamps[-1] == 60_000
