"""Network-side measurement: probes, capacity windows, min-RTT parts, emission."""

import random

import pytest

from natsim.emulink import BtsLink, PathConfig
from natsim.netassist import FeedbackMsg, MeasureError, NetAssist, NetAssistConfig
from natsim.trace import synth_constant, synth_step


def make_assist(rate_bps=12e6, duration_ms=60_000, ues=(0,), probe_us=5_000,
                cfg=None, schedule=None, path=None):
    schedule = schedule if schedule is not None else synth_constant(rate_bps, duration_ms)
    return NetAssist(
        cfg or NetAssistConfig(),
        schedule,
        path or PathConfig(),
        list(ues),
        probe_rtt=lambda now: probe_us,
    )


# -- probes --------------------------------------------------------------------

def test_probe_completion_is_respected():
    assist = make_assist()
    # probe fired at t=0 completes at t=5000; nothing is available before
    with pytest.raises(MeasureError, match="no completed probe"):
        assist.latest_probe_us(4_999)
    assert assist.latest_probe_us(5_000) == 5_000
    assert assist.latest_probe_us(300_000) == 5_000


def test_latest_probe_skips_incomplete_round_trips():
    calls = []

    def slow_probe(now):
        calls.append(now)
        return 60_000 if now == 100_000 else 5_000

    assist = NetAssist(NetAssistConfig(probe_interval_us=50_000),
                       synth_constant(12e6, 1_000), PathConfig(), [0], slow_probe)
    # At t=110 ms the probe launched at 100 ms (RTT 60 ms) has not returned;
    # the one from 50 ms has.
    assert assist.latest_probe_us(110_000) == 5_000
    assert calls[0] == 100_000


# -- capacity ---------------------------------------------------------------------

def test_bl_bw_constant_rate_exact():
    assist = make_assist()
    assert assist.measure_bl_bw(0, 50_000) == pytest.approx(12e6)
    assert assist.measure_bl_bw(950_000, 1_000_000) == pytest.approx(12e6)


def test_bl_bw_round_robin_share():
    assist = make_assist(ues=(0, 1))
    assert assist.measure_bl_bw(0, 50_000) == pytest.approx(6e6)


def test_bl_bw_window_clamped_at_zero():
    assist = make_assist()
    assert assist.measure_bl_bw(-50_000, 50_000) == pytest.approx(12e6)
    with pytest.raises(MeasureError):
        assist.measure_bl_bw(50_000, 50_000)


def test_bl_bw_short_window_reads_opportunity_spacing_not_zero():
    # 1 Mbit/s spaces opportunities 12 ms apart (at 24, 36, ... ms); the
    # 10 ms window [26, 36) misses them entirely and must fall back to the
    # actual spacing instead of reporting an outage.
    assist = make_assist(rate_bps=1e6, duration_ms=10_000)
    assert assist.schedule.count_in(26_000, 36_000) == 0
    assert assist.measure_bl_bw(26_000, 36_000) == pytest.approx(1e6)


def test_bl_bw_decays_through_an_outage():
    # 12 Mbit/s for 100 ms then silence: the estimate shrinks as the gap
    # since the last opportunity grows, instead of snapping to zero.
    assist = make_assist(schedule=synth_step([(12e6, 100), (0.0, 900)]))
    at_300 = assist.measure_bl_bw(290_000, 300_000)
    at_600 = assist.measure_bl_bw(590_000, 600_000)
    assert at_300 == pytest.approx(12_000 * 1e6 / 200_000)  # one MTU per 200 ms
    assert at_600 < at_300
    assert at_600 > 0


# -- min-RTT parts ---------------------------------------------------------------

def test_min_rtt_parts_reference_rate():
    assist = make_assist()
    assert assist.min_rtt_parts(12e6, now=50_000) == (5_000, 1_000, 43)
    assert assist.measure_min_rtt(12e6, now=50_000) == 6_043


def test_min_rtt_part2_is_10ms_at_1_2mbps():
    assist = make_assist()
    _, part2, _ = assist.min_rtt_parts(1.2e6, now=50_000)
    assert part2 == 10_000


def test_min_rtt_part2_ceiling_on_outage():
    assist = make_assist()
    _, part2, _ = assist.min_rtt_parts(0.0, now=50_000)
    assert part2 == 1_000_000
    # very low but nonzero rates are clamped to the same ceiling
    _, part2, _ = assist.min_rtt_parts(1.0, now=50_000)
    assert part2 == 1_000_000


def test_min_rtt_part3_tracks_uplink_rate():
    assist = make_assist(path=PathConfig(uplink_rate_bps=1e6))
    _, _, part3 = assist.min_rtt_parts(12e6, now=50_000)
    assert part3 == 512  # 64 bytes at 1 Mbit/s


# -- emission --------------------------------------------------------------------

def test_emit_one_digest_per_period_with_sequence():
    assist = make_assist(ues=(0, 1))
    first = assist.emit(50_000)
    second = assist.emit(100_000)
    assert isinstance(first, FeedbackMsg)
    assert (first.seq, second.seq) == (1, 2)
    assert first.t_emitted == 50_000
    assert first.bl_bw == pytest.approx(6e6)
    assert first.min_rtt == sum(assist.min_rtt_parts(first.bl_bw, 50_000))
    assert assist.emitted_count == 4  # still one per UE per period


def test_emit_digest_matches_the_measurement_of_its_period():
    # a varying rate with outages (stretched windows) and jittered probes
    schedule = synth_step([(12e6, 100), (0.0, 90), (3e6, 200), (24e6, 60)])
    path = PathConfig(probe_jitter_us=800)
    link = BtsLink(schedule, path, random.Random(1), lambda *a: None, lambda *a: None)
    assist = NetAssist(NetAssistConfig(period_us=20_000), schedule, path,
                       [3, 0, 7], link.probe_rtt)
    rtts = set()
    for k in range(1, 60):
        now = k * 20_000
        msg = assist.emit(now)
        bl_bw = assist.measure_bl_bw(now - 20_000, now)
        assert msg.bl_bw == bl_bw
        assert msg.min_rtt == assist.measure_min_rtt(bl_bw, now)
        assert (msg.seq, msg.t_emitted) == (k, now)
        rtts.add(msg.min_rtt)
    assert len(rtts) > 5  # jitter and rate changes both showed
    assert assist.emitted_count == 3 * 59


def test_emit_nothing_before_the_first_probe_returns():
    # the probe fired at t=0 completes at t=5000: no min-RTT exists before
    assist = make_assist(cfg=NetAssistConfig(period_us=1_000))
    assert [assist.emit(t) for t in range(1_000, 5_000, 1_000)] == [None] * 4
    assert assist.emitted_count == 0
    first = assist.emit(5_000)
    assert (first.seq, first.t_emitted) == (1, 5_000)
    assert assist.emitted_count == 1


def test_emit_suppression_boundary_inclusive():
    assist = make_assist(cfg=NetAssistConfig(suppress_after_us=100_000))
    assert assist.emit(50_000) is not None
    assert assist.emit(100_000) is None
    assert assist.emit(150_000) is None
    assert assist.emitted_count == 1


def test_overhead_reference_value():
    # 1200 messages of 64 bytes over 60 s -> 10.24 kbit/s on the dot.
    assist = make_assist()
    for k in range(1, 1_201):
        assist.emit(k * 50_000)
    assert assist.overhead_kbps(60_000_000) == pytest.approx(10.24)


def test_overhead_zero_for_in_band():
    assist = make_assist(cfg=NetAssistConfig(mode="ib"))
    assist.emit(50_000)
    assert assist.overhead_kbps(60_000_000) == 0.0
