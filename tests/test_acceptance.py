"""Acceptance gate: ten end-to-end checks, one PASS/FAIL line each.

Each test prints a single line (visible with -s, or in captured output on
failure) and then asserts. Long simulations shared by several checks are
cached at module scope; every simulation run is registered for the global
conservation audit in criterion 09.
"""

import random
import time
from functools import lru_cache

from natsim.cc import (
    CubicState,
    assisted_cwnd_bytes,
    cubic_k,
    cubic_window,
    make_controller,
)
from natsim.cli import main as cli_main
from natsim.config import SimConfig
from natsim.emulink import PathConfig
from natsim.engine import Simulation, percentile
from natsim.netassist import FeedbackMsg, NetAssist, NetAssistConfig
from natsim.trace import synth_constant

AUDITS: list[tuple[str, bool]] = []


def report(cid: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'} [{cid}] {detail}")
    assert ok, f"[{cid}] {detail}"


def simulate(label: str, **kw) -> "RunResult":
    assist_kw = kw.pop("assist_kw", {})
    cfg = SimConfig(**kw)
    for key, value in assist_kw.items():
        setattr(cfg.assist, key, value)
    sim = Simulation(cfg)
    result = sim.run()
    AUDITS.append((label, sim.link.conservation_ok()))
    return result


@lru_cache(maxsize=None)
def shared_run(kind: str) -> "RunResult":
    """The 60 s runs reused across several criteria."""
    if kind in ("natcp", "cubic"):
        return simulate(kind, scheme=kind, trace="const:12mbps",
                        duration_s=60.0, seed=1)
    if kind.startswith("fair-"):
        scheme = kind.split("-", 1)[1]
        return simulate(kind, scheme=scheme, trace="const:12mbps",
                        duration_s=60.0, seed=1,
                        flow_starts_s=(0.0, 15.0), flow_ues=(0, 0))
    raise KeyError(kind)


def fb(bl_bw: float, min_rtt: int, t: int = 0) -> FeedbackMsg:
    return FeedbackMsg(seq=1, bl_bw=bl_bw, min_rtt=min_rtt, t_emitted=t)


# ---------------------------------------------------------------------------

def test_criterion_01_assisted_window_arithmetic():
    one = assisted_cwnd_bytes(2.0, 1, 10_000, 12e6)
    two = assisted_cwnd_bytes(2.0, 2, 10_000, 12e6)
    # same numbers through the controller's feedback path
    ctl = make_controller("natcp", 1500)
    ctl.on_feedback(0, fb(12e6, 10_000))
    via_fb = ctl.cwnd
    ctl.on_ack(10, 1500, 10_000, beta=2)
    via_beta = ctl.cwnd
    ok = (one, two, via_fb, via_beta) == (30_000, 15_000, 30_000, 15_000)
    report("01", ok,
           f"window(beta=1)={one}B window(beta=2)={two}B "
           f"controller={via_fb}/{via_beta}B (want 30000/15000, exact)")


def test_criterion_02_cubic_growth_closed_form():
    rng = random.Random(1234)
    worst = 0.0
    for _ in range(1000):
        w_max = rng.uniform(2.0, 500.0)
        t = rng.uniform(0.0, 30.0)
        state = CubicState(w_max=w_max, k=cubic_k(w_max))
        want = 0.4 * (t - state.k) ** 3 + w_max
        got = cubic_window(t, state)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    k100 = cubic_k(100.0)
    ok = worst <= 1e-9 and abs(k100 - 4.2172) <= 1e-3
    report("02", ok,
           f"max rel err {worst:.2e} over 1000 samples (<=1e-9); "
           f"recovery time w_max=100 -> {k100:.4f}s (want ~4.2172)")


def test_criterion_03_assisted_flow_keeps_queue_near_empty():
    natcp = shared_run("natcp")
    cubic = shared_run("cubic")
    thr = natcp.throughput_mbps()
    avg = natcp.avg_qdelay_ms()
    p95n = natcp.p95_qdelay_ms()
    p95c = cubic.p95_qdelay_ms()
    ok = thr >= 10.8 and avg <= 5.0 and p95c >= 50.0 and p95c >= 5 * p95n
    report("03", ok,
           f"assisted thr={thr:.4f}Mbps (>=10.8) avg qdelay={avg:.3f}ms (<=5); "
           f"loss-driven p95={p95c:.1f}ms (>=50 and >=5x assisted p95 {p95n:.1f}ms)")


def test_criterion_04_power95_ordering_on_variable_trace():
    t0 = time.time()
    seeds = (1, 2, 3, 4, 5)
    variants = [("natcp", "oob"), ("natcp", "ib"), ("tg", "oob"), ("tg", "ib")]
    p95power: dict[tuple[str, str], list[float]] = {v: [] for v in variants}
    for scheme, mode in variants:
        for seed in seeds:
            res = simulate(f"walk-{scheme}-{mode}-{seed}", scheme=scheme,
                           trace="walk:1mbps-24mbps@100ms", duration_s=60.0,
                           seed=seed, assist_kw={"mode": mode})
            p95power[(scheme, mode)].append(res.power95())
    wall = time.time() - t0

    def wins(a, b) -> int:
        return sum(x > y for x, y in zip(p95power[a], p95power[b]))

    adjacent = [wins(variants[i], variants[i + 1]) for i in range(3)]
    outer = wins(variants[0], variants[-1])
    ok = all(w >= 3 for w in adjacent) and outer == len(seeds) and wall < 120
    report("04", ok,
           f"seed wins per adjacent pair {adjacent} (majority of 5 each); "
           f"best-vs-worst {outer}/5 (must be 5); wall {wall:.1f}s (<120)")


def test_criterion_05_two_flow_fair_share():
    shared = shared_run("fair-natcp")
    single = shared_run("natcp")
    t0, t1 = 15_000_000, 60_000_000
    g0 = shared.flow_goodput_mbps(0, t0, t1)
    g1 = shared.flow_goodput_mbps(1, t0, t1)
    gap = abs(g0 - g1) / max(g0, g1)
    agg = g0 + g1
    p95_shared = shared.p95_qdelay_ms()
    p95_single = single.p95_qdelay_ms()
    ok = gap <= 0.10 and agg >= 10.8 and p95_shared <= 2 * p95_single
    report("05", ok,
           f"overlap goodputs {g0:.3f}/{g1:.3f}Mbps (gap {gap:.1%}<=10%), "
           f"aggregate {agg:.3f}>=10.8; shared p95 {p95_shared:.1f}ms "
           f"<= 2x single {p95_single:.1f}ms")


def test_criterion_06_retransmission_ordering_across_schemes():
    counts = {s: shared_run(f"fair-{s}").retrans()
              for s in ("nacubic", "natcp", "cubic")}
    ok = counts["nacubic"] <= counts["natcp"] <= counts["cubic"]
    report("06", ok,
           "retransmits capped<=assisted<=loss-driven: "
           f"{counts['nacubic']} <= {counts['natcp']} <= {counts['cubic']}")


def test_criterion_07_fallback_identity_and_revert_deadline():
    kw = dict(trace="const:12mbps", duration_s=20.0, seed=3, log_events=True,
              assist_kw={"suppress_after_us": 0})
    silent_natcp = simulate("silent-natcp", scheme="natcp", **kw)
    silent_cubic = simulate("silent-cubic", scheme="cubic", **kw)
    identical = silent_natcp.departures() == silent_cubic.departures()

    cut = simulate("cut-natcp", scheme="natcp", trace="const:12mbps",
                   duration_s=40.0, seed=1,
                   assist_kw={"suppress_after_us": 30_000_000})
    log = cut.flows[0].mode_log
    t_revert = log[-1][0]
    reverted = (log[-1][1] == "fallback"
                and any(mode == "assisted" for _, mode in log)
                and 30_000_000 < t_revert <= 30_150_000)
    ok = identical and reverted
    report("07", ok,
           f"silent-feedback departures identical to plain loss-driven run: "
           f"{identical}; feedback cut at 30s -> fallback at "
           f"{t_revert/1e6:.3f}s (<=30.150s)")


def test_criterion_08_feedback_overhead_accounting():
    got = shared_run("natcp").overhead_kbps
    ok = abs(got - 10.24) <= 0.05 * 10.24
    report("08", ok, f"64B every 50ms reported as {got:.3f}kbps (10.24 +-5%)")


def test_criterion_09_metric_oracles_conservation_and_replay(tmp_path):
    rng = random.Random(99)
    mismatches = 0
    for _ in range(1000):
        n = rng.randint(1, 200)
        xs = [rng.randint(0, 10_000) for _ in range(n)]
        q = rng.uniform(0.01, 1.0)
        got = percentile(xs, q)
        want = min(v for v in xs if sum(x <= v for x in xs) >= q * n)
        mismatches += got != want
    conserved = all(ok for _, ok in AUDITS)

    args = ["run", "--duration", "2", "--seed", "9",
            "--set", "path.loss_prob=0.02",
            "--events-csv", "events.csv", "--feedback-csv", "feedback.csv"]
    cli_main(args + ["-o", str(tmp_path / "a")])
    cli_main(args + ["-o", str(tmp_path / "b")])
    replay_ok = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("summary.csv", "events.csv", "feedback.csv"))

    ok = mismatches == 0 and conserved and len(AUDITS) >= 25 and replay_ok
    report("09", ok,
           f"percentile vs counting oracle: {mismatches}/1000 mismatches; "
           f"queue conservation on all {len(AUDITS)} runs: {conserved}; "
           f"seeded replay byte-identical CSVs: {replay_ok}")


def test_criterion_10_min_rtt_term_composition():
    schedule = synth_constant(12_000_000, 60_000)
    path = PathConfig()
    assist = NetAssist(NetAssistConfig(), schedule, path, [0], lambda now: 5_000)
    part2_slow = assist.min_rtt_parts(1.2e6, 1_000_000)[1]

    rng = random.Random(42)
    composed = 0
    for _ in range(100):
        p = PathConfig(down_owd_us=rng.randint(500, 10_000),
                       up_owd_us=rng.randint(500, 10_000),
                       uplink_rate_bps=rng.choice([1e6, 5e6, 12e6, 50e6]))
        na = NetAssist(NetAssistConfig(), schedule, p, [0],
                       lambda now: 2 * p.down_owd_us)
        bl_bw = rng.choice([0.0, rng.uniform(2e5, 3e7)])
        now = rng.randint(100_000, 10_000_000)
        parts = na.min_rtt_parts(bl_bw, now)
        composed += na.measure_min_rtt(bl_bw, now) == sum(parts)
    ok = part2_slow == 10_000 and composed == 100
    report("10", ok,
           f"head-of-line term at 1.2Mbps = {part2_slow}us (want exactly 10000); "
           f"total equals sum of parts on {composed}/100 random configurations")
