"""Simulation wiring, metrics helpers, determinism, conservation."""

import math
import random

import pytest

from natsim.config import SimConfig, build_config
from natsim.engine import (
    EventLoop,
    Simulation,
    compute_power,
    percentile,
    run_simulation,
)
from natsim.netassist import NetAssistConfig
from natsim.trace import TraceError


def cfg(**kw):
    base = dict(scheme="natcp", trace="const:12mbps", duration_s=5.0, seed=1)
    base.update(kw)
    path_kw = base.pop("path_kw", None)
    c = SimConfig(**base)
    if path_kw:
        for k, v in path_kw.items():
            setattr(c.path, k, v)
    return c


# -- metrics helpers ------------------------------------------------------------

def test_percentile_nearest_rank_examples():
    assert percentile(list(range(1, 101)), 0.95) == 95
    assert percentile([7], 0.95) == 7
    assert percentile([1, 2, 3, 4], 0.5) == 2
    assert percentile([3, 1, 2], 1.0) == 3
    assert percentile([5, 9], 0.01) == 5


def test_percentile_against_counting_oracle():
    rng = random.Random(123)
    for _ in range(300):
        n = rng.randint(1, 60)
        xs = [rng.randint(0, 1_000) for _ in range(n)]
        q = rng.choice([0.05, 0.5, 0.9, 0.95, 0.99, 1.0])
        got = percentile(xs, q)
        # oracle: smallest value covering at least a fraction q of samples
        want = min(v for v in xs if sum(x <= v for x in xs) >= q * n)
        assert got == want


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1], 0.0)
    with pytest.raises(ValueError):
        percentile([1], 1.5)


def test_compute_power():
    assert compute_power(12.0, 3.0) == 4.0
    assert compute_power(12.0, 0.0) == math.inf
    assert compute_power(12.0, None) is None


def test_event_loop_fifo_among_ties():
    loop = EventLoop()
    seen = []
    loop.schedule(10, lambda now: seen.append("first"))
    loop.schedule(10, lambda now: seen.append("second"))
    loop.schedule(5, lambda now: seen.append("early"))
    loop.run_until(100)
    assert seen == ["early", "first", "second"]


def test_event_loop_reserved_tick_runs_before_later_schedules():
    loop = EventLoop()
    seen = []
    tick = loop.reserve()
    loop.schedule(10, lambda now: seen.append("scheduled later"))
    loop.schedule(10, lambda now: seen.append("reserved earlier"), (), tick)
    loop.run_until(100)
    assert seen == ["reserved earlier", "scheduled later"]


def test_event_loop_ignores_events_past_horizon():
    loop = EventLoop()
    seen = []
    loop.schedule(10, lambda now: seen.append(10))
    loop.schedule(20, lambda now: seen.append(20))
    loop.run_until(15)
    assert seen == [10]


# -- end-to-end wiring -------------------------------------------------------------

def test_deterministic_replay_same_seed():
    a = run_simulation(cfg(path_kw={"loss_prob": 0.02}, seed=7, log_events=True))
    b = run_simulation(cfg(path_kw={"loss_prob": 0.02}, seed=7, log_events=True))
    assert a.departures() == b.departures()
    assert a.event_log == b.event_log
    assert a.feedback_log == b.feedback_log
    assert a.summary_row() == b.summary_row()


def test_different_seed_changes_loss_pattern():
    a = run_simulation(cfg(path_kw={"loss_prob": 0.02}, seed=7, log_events=True))
    b = run_simulation(cfg(path_kw={"loss_prob": 0.02}, seed=8, log_events=True))
    assert a.event_log != b.event_log


def test_conservation_and_counters_line_up():
    res = run_simulation(cfg(scheme="cubic", duration_s=10.0, log_events=True))
    assert res.conservation_ok
    assert res.queue_drops > 0                      # cubic overfills droptail
    n_deq = sum(1 for row in res.event_log if row[1] == "deq")
    n_dlv = sum(1 for row in res.event_log if row[1] == "dlv")
    n_air = sum(1 for row in res.event_log if row[1] == "airdrop")
    assert n_deq == n_dlv + n_air
    assert len(res.qdelay_samples_us) == n_deq      # sampled at every dequeue
    n_enq = sum(1 for row in res.event_log if row[1] == "enq")
    n_tail = sum(1 for row in res.event_log if row[1] == "drop")
    n_snd = sum(1 for row in res.event_log if row[1] == "snd")
    assert n_snd >= n_enq + n_tail                  # in-flight at cutoff
    delivered = sum(f.delivered_bytes for f in res.flows)
    assert delivered == n_dlv * 1500


def test_departures_need_a_recorded_log():
    res = run_simulation(cfg(duration_s=1.0))
    assert res.event_log == []
    with pytest.raises(ValueError, match="log.events"):
        res.departures()
    logged = run_simulation(cfg(duration_s=1.0, log_events=True))
    departures = logged.departures()
    assert [q for *_, q in departures] == logged.qdelay_samples_us


def test_feedback_log_and_fb_count():
    res = run_simulation(cfg(duration_s=2.0))
    # 50 ms cadence, 2 s run; the 2 s emission arrives past the horizon
    assert res.flows[0].fb_count == 39
    assert len(res.feedback_log) == 39
    flow, seq, t_emit, t_arr, bl_bw, min_rtt = res.feedback_log[0]
    assert (flow, seq, t_emit, t_arr) == (0, 1, 50_000, 52_000)
    assert bl_bw == pytest.approx(12e6)
    assert min_rtt == 6_043


def test_in_band_feedback_rides_data_acks():
    res = run_simulation(cfg(duration_s=2.0, assist=NetAssistConfig(mode="ib")))
    assert res.flows[0].fb_count > 0
    assert res.overhead_kbps == 0.0
    # in-band arrival = dequeue wait + uplink, never the out-of-band 2 ms
    latencies = {t_arr - t_emit for (_, _, t_emit, t_arr, _, _) in res.feedback_log}
    assert min(latencies) > 2_000


def test_flow_start_offsets_respected():
    res = run_simulation(cfg(flow_starts_s=(0.0, 2.0), flow_ues=(0, 0),
                             log_events=True))
    first_snd = {f: None for f in (0, 1)}
    for t, kind, flow, _seq, _q in res.event_log:
        if kind == "snd" and first_snd[flow] is None:
            first_snd[flow] = t
    assert first_snd[0] == 0
    assert first_snd[1] == 2_000_000


@pytest.mark.parametrize("settings, first_emit_us", [
    ({"assist.period_us": "1000"}, 5_000),
    ({"path.down_owd_us": "40000"}, 100_000),
    ({"assist.period_us": "4000", "assist.mode": "ib"}, 8_000),
])
def test_periods_before_the_first_probe_returns_emit_nothing(settings, first_emit_us):
    res = run_simulation(build_config(None, {"duration_s": "1", **settings}))
    _, seq, t_emit, t_arr, _, _ = res.feedback_log[0]
    assert (seq, t_emit) == (1, first_emit_us)
    # the flow stays on its fallback until the first digest arrives
    assert res.flows[0].mode_log[:2] == [(0, "fallback"), (t_arr, "assisted")]


def test_watchdog_reverts_after_three_silent_periods():
    res = run_simulation(cfg(
        duration_s=4.0,
        assist=NetAssistConfig(suppress_after_us=2_000_000),
    ))
    log = res.flows[0].mode_log
    assert log[0] == (0, "fallback")
    assert log[1][1] == "assisted"
    # last feedback was emitted at 1.95 s and arrived 2 ms later; the third
    # silent 50 ms period ends 150 ms after that arrival
    assert log[2] == (2_102_000, "fallback")


def test_one_pending_watchdog_check_per_flow():
    sim = Simulation(cfg(
        duration_s=3.0, assist=NetAssistConfig(period_us=20_000, mode="ib"),
        flow_starts_s=tuple(0.1 * i for i in range(8)),
        flow_ues=(0, 1, 2, 3) * 2,
    ))
    run_until = sim.loop.run_until
    most = 0

    def stepped(t_end_us):
        nonlocal most
        for t in range(0, t_end_us + 1, 1_000):
            run_until(t)
            pending = [args[0] for (_, _, fn, args) in sim.loop._heap
                       if getattr(fn, "__name__", "") == "_watchdog_check"]
            assert len(pending) == len(set(pending))
            most = max(most, len(pending))

    sim.loop.run_until = stepped
    res = sim.run()
    assert most == 8  # every flow had a check pending at once
    reverts = sum(mode == "fallback" for f in res.flows for _, mode in f.mode_log[1:])
    assert reverts > 0  # and checks did fire live


def test_one_out_of_band_arrival_per_period_reaches_every_started_flow():
    # 16 flows on 8 UEs, listed out of UE order, starting on odd
    # microseconds so no start ties with a feedback arrival
    sim = Simulation(cfg(
        duration_s=1.0, assist=NetAssistConfig(period_us=20_000),
        flow_starts_s=tuple(0.0371 * i + 1e-6 for i in range(16)),
        flow_ues=(5, 2, 7, 0, 3, 6, 1, 4) * 2,
    ))
    arrivals = []
    oob_arrive = sim._oob_arrive

    def counted(now, msg):
        arrivals.append((now, msg.seq))
        oob_arrive(now, msg)

    sim._oob_arrive = counted
    res = sim.run()
    # emitted every 20 ms, arriving 2 ms later; the 1 s digest lands past the end
    assert arrivals == [(20_000 * k + 2_000, k) for k in range(1, 50)]
    assert sim.assist.emitted_count == 50 * 8
    specs = sim.cfg.flows()
    in_ue_order = [f for ue in (5, 2, 7, 0, 3, 6, 1, 4) for f in specs if f.ue_id == ue]
    for t_arr, seq in arrivals:
        rows = [row for row in res.feedback_log if row[1] == seq]
        assert {row[3] for row in rows} == {t_arr}
        assert [row[0] for row in rows] == [
            f.flow_id for f in in_ue_order if f.start_us < t_arr]


def test_in_band_digest_staged_on_every_ue():
    sim = Simulation(cfg(assist=NetAssistConfig(mode="ib"),
                         flow_starts_s=(0.0,) * 8, flow_ues=tuple(range(8))))
    sim._emit_feedback(50_000)
    staged = sim.link._pending_ib
    assert sorted(staged) == list(range(8))
    digest = staged[0]
    assert (digest.seq, digest.t_emitted) == (1, 50_000)
    assert all(msg is digest for msg in staged.values())


@pytest.mark.parametrize("trace", ["step:0mbps@500ms", "const:0.3bps"])
def test_unusable_schedule_rejected_at_set_up(trace):
    with pytest.raises(TraceError, match="no delivery opportunity"):
        Simulation(cfg(trace=trace, duration_s=2.0))


def test_multi_ue_round_robin_split():
    res = run_simulation(cfg(duration_s=4.0,
                             flow_starts_s=(0.0, 0.0), flow_ues=(0, 1)))
    g0 = res.flow_goodput_mbps(0)
    g1 = res.flow_goodput_mbps(1)
    assert g0 == pytest.approx(6.0, rel=0.05)
    assert g1 == pytest.approx(6.0, rel=0.05)


def test_summary_row_schema():
    res = run_simulation(cfg(duration_s=2.0))
    row = res.summary_row()
    assert list(row) == [
        "scheme", "trace", "duration_s", "throughput_mbps", "goodput_mbps",
        "avg_qdelay_ms", "p95_qdelay_ms", "power", "power95", "retrans",
        "drops", "feedback_overhead_kbps",
    ]
    assert row["scheme"] == "natcp"
    assert row["feedback_overhead_kbps"] == pytest.approx(10.24)


def test_goodput_window_helper():
    res = run_simulation(cfg(duration_s=2.0))
    full = res.flow_goodput_mbps(0)
    tail = res.flow_goodput_mbps(0, 1_000_000, 2_000_000)
    assert tail == pytest.approx(12.0, rel=0.05)    # steady state after ramp
    assert 0 < full <= tail
    with pytest.raises(ValueError):
        res.flow_goodput_mbps(0, 5, 5)
