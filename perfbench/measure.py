"""Measure one workload in this process; print the figures as one JSON line.

    python3 perfbench/measure.py --workload ref-12m --seed 1 --seconds 10 --mode timed

run.py starts this once per workload and mode, from the checkout root, so
each workload's peak RSS is its own.

timed   untraced iterations for --seconds (at least two, so every run has
        a same-seed replay), then SETUP_REPEATS set-ups, then one more
        iteration that measures the deep size of the results.
traced  iterations (at least one) with span wrappers around every layer.
digest  one untimed iteration, for recording golden digests.

Every iteration is audited and digested; an iteration that raises, breaks
an invariant or differs from the first iteration counts as failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import natsim  # noqa: E402

from spans import SpanRecorder, instrument  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from stats import median, nearest_rank, timing_metrics  # noqa: E402
from workloads import WORKLOADS, SimHook, outputs_digest  # noqa: E402

MIN_ITERATIONS = 2
SETUP_REPEATS = 15
MB = 2 ** 20
SELF_SHARE_LAYERS = ("engine", "emulink", "netassist", "transport", "cc", "trace", "config")
TRACE_QUERIES = ("index_at_or_after", "instant", "count_in", "capacity_bits")
clock = time.perf_counter


class Tally:
    """Attempted and failed iterations; the first digest is the replay reference."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.replay_mismatches = 0
        self.problems: list[str] = []
        self.digest: str | None = None

    def run(self, workload, hook: SimHook):
        """One iteration; returns (wall seconds, output files), or None if it raised."""
        self.attempted += 1
        t0, s0 = clock(), hook.stolen()
        try:
            files = workload.run(hook)
        except Exception as exc:  # a raising run is a failed run, not a crash
            self.failed += 1
            self.problems.append(f"{type(exc).__name__}: {exc}")
            return None
        wall = clock() - t0 - (hook.stolen() - s0) - hook.bench_s
        digest = outputs_digest(hook.digests, files)
        bad = list(hook.violations)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            self.replay_mismatches += 1
            bad.append("outputs differ from the first iteration of the same seed")
        if bad:
            self.failed += 1
            self.problems.extend(bad)
        return wall, files

    def report(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "replay_mismatches": self.replay_mismatches,
                "problems": sorted(set(self.problems)), "digest": self.digest}


def timed(workload, seconds: float) -> dict:
    tally = Tally()
    run_s, wall_s, pkts_per_s, raw_run_s = [], [], [], []
    with SpeedSampler() as speed:
        start = clock()
        while tally.attempted < MIN_ITERATIONS or clock() - start < seconds:
            hook = SimHook(lambda: speed.stolen_s)
            mark = speed.mark()
            done = tally.run(workload, hook)
            scale = speed.scale(mark)
            if done is not None:
                raw_run_s.append(hook.run_s)
                run_s.append(hook.run_s * scale)
                wall_s.append(done[0] * scale)
                pkts_per_s.append(hook.pkts / run_s[-1])
            del hook, done
            gc.collect()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        setup_s = []
        for _ in range(SETUP_REPEATS):
            mark, t0, s0 = speed.mark(), clock(), speed.stolen_s
            workload.setup()
            raw = clock() - t0 - (speed.stolen_s - s0)
            setup_s.append(raw * speed.scale(mark))
            gc.collect()
        loops = list(speed.loops)

    sizing = SimHook(size=True)
    tally.run(workload, sizing)
    passed = tally.attempted - tally.failed
    return {**tally.report(), "run_s": median(run_s), "raw_run_s": median(raw_run_s),
            "speed_loop_s": median(loops), "metrics": {
        "setup_s": (median(setup_s), "s"),
        "run_s": (median(run_s), "s"),
        "wall_s": (median(wall_s), "s"),
        "pkts_per_s": (median(pkts_per_s), "pkt/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "result_mb": (sizing.result_bytes / MB, "MB"),
        "pass_rate": (passed / tally.attempted, "ratio"),
    }}


def layer_metrics(rec: SpanRecorder, hook: SimHook, files: list[Path]) -> dict:
    """Per-layer figures of one traced iteration."""
    c = hook.counts
    run, bench, calls = hook.phase_self["run"], hook.phase_self["bench"], hook.run_calls
    # spans and run_raw_s both include the speed sampler's handler time
    m = {f"{layer}.self_share": (run[layer] / hook.run_raw_s, "ratio")
         for layer in SELF_SHARE_LAYERS}
    m["spans.self_share_sum"] = (sum(run.values()) / hook.run_raw_s, "ratio")

    checks = calls["engine.Simulation._watchdog_check"]
    reverts = sum(n for name, n in calls.items()
                  if name.startswith("cc.") and name.endswith(".revert"))
    m["engine.events"] = (hook.events, "count")
    m["engine.events_per_pkt"] = (hook.events / hook.pkts, "ratio")
    m["engine.watchdog_checks"] = (checks, "count")
    m["engine.watchdog_stale_ratio"] = ((checks - reverts) / checks if checks else 0.0, "ratio")
    m["engine.log_rows"] = (c["log_rows"], "count")
    m["engine.event_log_mb"] = (c["event_log_bytes"] / MB, "MB")
    m["engine.deliveries_mb"] = (c["deliveries_bytes"] / MB, "MB")

    qdelay = sorted(hook.qdelay_us)
    m.update(timing_metrics("emulink.opportunity", rec.samples["emulink.opportunity"]))
    m["emulink.opportunities_served"] = (c["served"], "count")
    m["emulink.opportunity_use"] = (c["served"] / c["offered"], "ratio")
    m["emulink.queue_drops"] = (c["queue_drops"], "count")
    m["emulink.air_drops"] = (c["air_drops"], "count")
    m["emulink.qdelay_p50_ms"] = (nearest_rank(qdelay, 1, 2) / 1000 if qdelay else 0.0, "ms")
    m["emulink.qdelay_p99_ms"] = (nearest_rank(qdelay, 99, 100) / 1000 if qdelay else 0.0, "ms")

    m.update(timing_metrics("netassist.emit", rec.samples["netassist.emit"]))
    m["netassist.digests_emitted"] = (c["emitted"], "count")
    m["netassist.digests_applied"] = (c["applied"], "count")

    m.update(timing_metrics("transport.on_data", rec.samples["transport.on_data"]))
    m["transport.segments_sent"] = (c["segments_sent"], "count")
    m["transport.retransmits"] = (c["retransmits"], "count")
    m["transport.timeouts"] = (c["timeouts"], "count")
    m["transport.goodput_ratio"] = (c["unique_bytes"] / c["delivered_bytes"], "ratio")

    m.update(timing_metrics("cc.call", rec.samples["cc.call"]))
    m["cc.mode_switches"] = (c["mode_switches"], "count")

    # set-up work is everything outside the run and the benchmark's own checks
    def build_s(layer: str) -> float:
        return rec.self_s[layer] - run[layer] - bench[layer]

    m["trace.build_s"] = (build_s("trace"), "s")
    m["trace.queries"] = (sum(calls[f"trace.TraceSchedule.{q}"] for q in TRACE_QUERIES), "count")
    m["trace.opportunities"] = (c["opportunities"], "count")
    m["config.build_s"] = (build_s("config"), "s")

    m["cli.output_s"] = (rec.self_s["cli"], "s")
    m["cli.rows_written"] = (sum(p.read_bytes().count(b"\n") - 1 for p in files), "count")
    m["cli.output_mb"] = (sum(p.stat().st_size for p in files) / MB, "MB")
    return m


def traced(workload, seconds: float) -> dict:
    rec = SpanRecorder()
    restore, missing = instrument(rec)
    tally = Tally()
    per_iteration, run_s = [], []
    try:
        with SpeedSampler() as speed:
            start = clock()
            while tally.attempted < 1 or clock() - start < seconds:
                rec.reset()
                hook = SimHook(lambda: speed.stolen_s, spans=rec)
                mark = speed.mark()
                done = tally.run(workload, hook)
                scale = speed.scale(mark)
                if done is not None:
                    m = layer_metrics(rec, hook, done[1])
                    per_iteration.append({
                        name: (v * scale if unit in ("s", "us") else v, unit)
                        for name, (v, unit) in m.items()})
                    run_s.append(hook.run_s * scale)
                    counts = {"events": hook.events, "sim_s": hook.counts["sim_us"] / 1e6}
                del hook, done
                gc.collect()
    finally:
        restore()
    if not per_iteration:
        return {**tally.report(), "missing": missing, "metrics": {}}
    metrics = {name: (median([it[name][0] for it in per_iteration]), unit)
               for name, (_, unit) in per_iteration[0].items()}
    return {**tally.report(), **counts, "missing": missing, "run_s": median(run_s),
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("timed", "traced", "digest"), required=True)
    args = parser.parse_args()
    if not Path(natsim.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"measure: natsim imported from {natsim.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    workload = WORKLOADS[args.workload](args.seed)
    if args.mode == "digest":
        tally = Tally()
        tally.run(workload, SimHook())
        report = tally.report()
    else:
        report = (timed if args.mode == "timed" else traced)(workload, args.seconds)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
