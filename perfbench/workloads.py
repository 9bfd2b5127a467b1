"""The benchmark workloads and the hook that times, audits, digests and
counts every simulation they run.

All inputs derive from the seed.  Paths are relative to the checkout root
(the working directory of every benchmark process), so the outputs, and
hence their digests, do not depend on where the checkout lives.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import random
import time
from collections import Counter
from pathlib import Path

from natsim import cli, config, engine

from stats import deep_size

WORK = Path("perfbench") / "_work"
clock = time.perf_counter

FLOW_COUNTERS = ("flow_id", "ue_id", "start_us", "sent_segments", "retransmits",
                 "timeouts", "delivered_bytes", "unique_bytes", "drops", "fb_count")


def sim_digest(row: dict, flows: list) -> str:
    """sha256 of one run's summary row and per-flow counters."""
    doc = {"summary": row,
           "flows": [[getattr(f, k) for k in FLOW_COUNTERS] for f in flows]}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def outputs_digest(sim_digests: list[str], files: list[Path]) -> str:
    """sha256 over the per-run digests and the bytes of every output file."""
    h = hashlib.sha256()
    for d in sim_digests:
        h.update(d.encode())
    for path in files:
        h.update(str(path).encode())
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def audit(sim, result, row: dict) -> list[str]:
    """End-of-run invariants checked from outside; plain ifs survive -O."""
    bad = []
    # The loop also runs events stamped exactly at the duration, so the
    # offered horizon is the closed interval [0, duration].
    capacity = sim.schedule.capacity_bits(0, result.duration_us + 1)
    goodput_bits = 8 * sum(f.unique_bytes for f in result.flows)
    if goodput_bits > capacity:
        bad.append(f"goodput {goodput_bits} bits exceeds capacity {capacity} bits")
    for ue, q in sim.link.queues.items():
        if (q.enqueued_bytes != q.dequeued_bytes + q.occupancy
                or not 0 <= q.occupancy <= q.capacity_bytes
                or q.occupancy != sum(p.size for p in q.fifo)):
            bad.append(f"queue byte identity broken at UE {ue}")
    for key, value in row.items():
        if isinstance(value, float) and not math.isfinite(value):
            bad.append(f"summary {key} is {value}")
    return bad


class SimHook:
    """Drop-in for ``natsim.engine.run_simulation``.

    Times set-up (config to wired Simulation) and run separately, then
    audits and digests the result.  Its own bookkeeping time is kept in
    ``bench_s`` so callers can take it out of wall time.  ``stolen`` reads
    the cumulative time of a speed sampler's handler, which is taken out of
    every interval.  With ``spans`` it also splits span self time by phase
    and collects layer counts; with ``size`` it measures the deep size of
    each result.
    """

    def __init__(self, stolen=lambda: 0.0, spans=None, size: bool = False) -> None:
        self.stolen = stolen
        self.spans = spans
        self.size = size
        self.setup_s = 0.0
        self.run_s = 0.0
        self.run_raw_s = 0.0  # including sampler time, as span durations do
        self.bench_s = 0.0
        self.pkts = 0
        self.events = 0
        self.result_bytes = 0
        self.digests: list[str] = []
        self.violations: list[str] = []
        self.counts: Counter = Counter()
        self.qdelay_us: list[int] = []
        self.phase_self = {"run": Counter(), "bench": Counter()}
        self.run_calls: Counter = Counter()
        self._note = spans.wrap("bench", "bench.note", self._note_run) if spans \
            else self._note_run

    def _interval(self, t0: float, s0: float) -> float:
        return clock() - t0 - (self.stolen() - s0)

    def untimed(self, fn) -> None:
        """Run fn as benchmark bookkeeping, outside every timed part."""
        t0, s0 = clock(), self.stolen()
        fn()
        self.bench_s += self._interval(t0, s0)

    def _snap(self):
        return self.spans.snapshot() if self.spans else None

    def _add_phase(self, phase: str, before, after) -> None:
        if before is None:
            return
        for layer, s in after[0].items():
            self.phase_self[phase][layer] += s - before[0].get(layer, 0.0)
        if phase == "run":
            self.run_calls.update(after[1])
            self.run_calls.subtract(before[1])

    def run_simulation(self, cfg):
        t0, s0 = clock(), self.stolen()
        sim = engine.Simulation(cfg)
        self.setup_s += self._interval(t0, s0)
        before = self._snap()
        t0, s0 = clock(), self.stolen()
        result = sim.run()
        self.run_raw_s += clock() - t0
        self.run_s += self._interval(t0, s0)
        after = self._snap()
        self._add_phase("run", before, after)
        self._note(sim, result)
        self._add_phase("bench", after, self._snap())
        return result

    def _note_run(self, sim, result) -> None:
        t0, s0 = clock(), self.stolen()
        row = result.summary_row()
        self.pkts += sum(len(f.deliveries) for f in result.flows)
        self.events += sim.loop.processed
        self.digests.append(sim_digest(row, result.flows))
        self.violations += audit(sim, result, row)
        if self.spans is not None:
            self._count(sim, result)
        if self.size:
            self.result_bytes += deep_size(result)
        self.bench_s += self._interval(t0, s0)

    def _count(self, sim, result) -> None:
        c = self.counts
        c["sim_us"] += result.duration_us
        c["log_rows"] += len(result.event_log) + len(result.feedback_log)
        c["event_log_bytes"] += deep_size(result.event_log)
        c["deliveries_bytes"] += deep_size([f.deliveries for f in result.flows])
        c["served"] += sim.link.served_opportunities
        c["offered"] += sim.schedule.index_at_or_after(result.duration_us + 1)
        c["opportunities"] += sim.schedule.n_opportunities
        c["queue_drops"] += result.queue_drops
        c["air_drops"] += sim.link.air_drops
        c["emitted"] += sim.assist.emitted_count
        c["applied"] += len(result.feedback_log)
        for f in result.flows:
            c["segments_sent"] += f.sent_segments
            c["retransmits"] += f.retransmits
            c["timeouts"] += f.timeouts
            c["delivered_bytes"] += f.delivered_bytes
            c["unique_bytes"] += f.unique_bytes
            c["mode_switches"] += max(0, len(f.mode_log) - 1)
        self.qdelay_us.extend(result.qdelay_samples_us)


class Workload:
    """One named scenario built from a seed."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.out = WORK / self.name
        self.out.mkdir(parents=True, exist_ok=True)

    def setup(self) -> None:
        """One set-up: from inputs to wired, unrun simulations."""
        raise NotImplementedError

    def run(self, hook: SimHook) -> list[Path]:
        """One iteration through ``hook``; returns the output files written."""
        raise NotImplementedError


class SimWorkload(Workload):
    """A single simulation from a settings map, as a script would run it."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.settings = self.make_settings()

    def make_settings(self) -> dict[str, str]:
        raise NotImplementedError

    def setup(self) -> None:
        engine.Simulation(config.build_config(None, self.settings))

    def run(self, hook: SimHook) -> list[Path]:
        result = hook.run_simulation(config.build_config(None, self.settings))
        path = self.out / "summary.csv"
        cli.write_csv(path, engine.SUMMARY_COLUMNS, [result.summary_row()])
        return [path]


class Ref12m(SimWorkload):
    name = "ref-12m"

    def make_settings(self) -> dict[str, str]:
        return {"scheme": "natcp", "trace": "const:12mbps", "duration_s": "60",
                "seed": str(self.seed)}


CROWD_UES = 64
CROWD_FLOWS_PER_UE = 4


class Crowd(SimWorkload):
    name = "crowd"

    def make_settings(self) -> dict[str, str]:
        rng = random.Random(self.seed)
        n = CROWD_UES * CROWD_FLOWS_PER_UE
        starts = ",".join(f"{rng.randrange(1_000_000) / 1e6:.6f}" for _ in range(n))
        ues = ",".join(str(i // CROWD_FLOWS_PER_UE) for i in range(n))
        return {"scheme": "nacubic", "trace": "const:48mbps", "duration_s": "10",
                "seed": str(self.seed), "assist.period_us": "20000",
                "flows.start_s": starts, "flows.ue": ues}


class Gig(SimWorkload):
    name = "gig"

    def make_settings(self) -> dict[str, str]:
        return {"scheme": "natcp", "trace": "const:1gbps", "duration_s": "2",
                "seed": str(self.seed)}


WALK_CYCLE_MS = 60_000
WALK_STEP_MS = 100
WALK_MIN_BPS, WALK_MAX_BPS, WALK_MEAN_BPS = 1e6, 24e6, 8e6
MTU_BITS = 1500 * 8


def walk_trace(seed: int) -> str:
    """Mahimahi trace of a 1-24 Mbit/s multiplicative random walk in 100 ms
    steps over a 60 s cycle.  The walk is rescaled to an 8 Mbit/s mean and
    the per-step packet counts are rounded to a fixed total, so every seed
    offers the same capacity in a different shape."""
    rng = random.Random(seed)
    rate = math.sqrt(WALK_MIN_BPS * WALK_MAX_BPS)
    rates = []
    for _ in range(WALK_CYCLE_MS // WALK_STEP_MS):
        rates.append(rate)
        rate = min(WALK_MAX_BPS, max(WALK_MIN_BPS, rate * 2.0 ** rng.uniform(-1.0, 1.0)))
    for _ in range(50):
        scale = WALK_MEAN_BPS * len(rates) / sum(rates)
        rates = [min(WALK_MAX_BPS, max(WALK_MIN_BPS, r * scale)) for r in rates]
    total = round(WALK_MEAN_BPS * WALK_CYCLE_MS / 1000 / MTU_BITS)
    exact = [r * total / sum(rates) for r in rates]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(exact)), key=lambda i: (counts[i] - exact[i], i))
    for i in by_remainder[:total - sum(counts)]:
        counts[i] += 1
    lines = []
    for step, n in enumerate(counts):
        start = step * WALK_STEP_MS
        lines.extend(str(start + (k + 1) * WALK_STEP_MS // n) for k in range(n))
    return "\n".join(lines) + "\n"


class CellularCli(Workload):
    name = "cellular-cli"
    # cubic is left out: its loss recovery stalls for good on about a quarter
    # of seeds (ROADMAP item 4), which makes this workload's work bimodal
    # across seeds.  nacubic still runs the cubic controller underneath.
    schemes = ("natcp", "nacubic", "tg")

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        trace = self.out / "walk.trace"
        trace.write_text(walk_trace(seed))
        self.argvs = [
            ["run", "--scheme", scheme, "--trace", str(trace), "--duration", "60",
             "--seed", str(seed), "--set", "path.loss_prob=0.001",
             "--events-csv", "events.csv", "--feedback-csv", "feedback.csv",
             "-o", str(self.out / scheme)]
            for scheme in self.schemes
        ]

    def setup(self) -> None:
        for argv in self.argvs:
            args = cli.build_parser().parse_args(argv)
            engine.Simulation(cli.config_from_args(args))

    def run(self, hook: SimHook) -> list[Path]:
        saved = cli.run_simulation
        cli.run_simulation = hook.run_simulation
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                for argv in self.argvs:
                    code = cli.main(argv)
                    if code != cli.EXIT_OK:
                        raise RuntimeError(f"natsim {' '.join(argv)} exited {code}")
                    # each call stands for a process of its own: free its
                    # garbage before the next one, untimed
                    hook.untimed(gc.collect)
        finally:
            cli.run_simulation = saved
        return [self.out / scheme / name for scheme in self.schemes
                for name in ("summary.csv", "events.csv", "feedback.csv")]


WORKLOADS = {w.name: w for w in (Ref12m, CellularCli, Crowd, Gig)}
