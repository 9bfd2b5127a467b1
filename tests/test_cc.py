"""Congestion controllers: feedback window law, cubic curve, scheme behaviors."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from natsim.cc import (
    CcConfig,
    CubicController,
    CubicState,
    NaCubicController,
    NatcpController,
    TgController,
    assisted_cwnd_bytes,
    cubic_k,
    cubic_window,
    cwnd_floor_bytes,
    make_controller,
    pacing_floor_bps,
)
from natsim.netassist import FeedbackMsg

MTU = 1500


def fb(bl_bw, min_rtt, seq=1, t=50_000):
    return FeedbackMsg(seq=seq, bl_bw=bl_bw, min_rtt=min_rtt, t_emitted=t)


# -- feedback window law ------------------------------------------------------

def test_assisted_window_reference_values():
    # alpha=2, minRTT=10 ms, capacity 12 Mbit/s
    assert assisted_cwnd_bytes(2.0, 1, 10_000, 12e6) == 30_000
    assert assisted_cwnd_bytes(2.0, 2, 10_000, 12e6) == 15_000


def test_assisted_window_scales():
    base = assisted_cwnd_bytes(2.0, 1, 10_000, 12e6)
    assert assisted_cwnd_bytes(4.0, 1, 10_000, 12e6) == 2 * base
    assert assisted_cwnd_bytes(2.0, 1, 20_000, 12e6) == 2 * base
    assert assisted_cwnd_bytes(2.0, 1, 10_000, 6e6) == base // 2
    assert assisted_cwnd_bytes(2.0, 3, 10_000, 12e6) == 10_000


def test_floors():
    assert cwnd_floor_bytes(MTU) == 3_000
    assert pacing_floor_bps(MTU) == 120_000.0  # one MTU per 100 ms


# -- cubic curve -----------------------------------------------------------------

def test_cubic_k_reference_value():
    # K = cbrt(w_max * (1 - 0.7) / 0.4); w_max = 100 segments
    assert cubic_k(100.0) == pytest.approx(75 ** (1 / 3), rel=1e-12)
    assert cubic_k(100.0) == pytest.approx(4.2172, abs=5e-5)


def test_cubic_window_closed_form():
    st = CubicState(w_max=100.0, k=cubic_k(100.0))
    for t in (0.0, 1.0, 4.2172, 7.5, 12.0):
        want = 0.4 * (t - st.k) ** 3 + 100.0
        assert cubic_window(t, st) == pytest.approx(want, rel=1e-9)
    # the curve returns to w_max exactly at t = K
    assert cubic_window(st.k, st) == pytest.approx(100.0, rel=1e-12)


def test_cubic_slow_start_counts_acked_bytes():
    ctl = CubicController(MTU)
    assert ctl.cwnd == 10 * MTU
    ctl.on_ack(1_000, 3_000, 10_000, 1)
    assert ctl.cwnd == 10 * MTU + 3_000


def test_cubic_dupack_cut_and_convex_regrowth():
    ctl = CubicController(MTU)
    ctl.cwnd = 15_000
    ctl.on_loss(1_000_000, "dupack")
    assert ctl.cwnd == 10_500                       # 0.7 factor
    assert ctl.state.ssthresh == 10_500
    assert not ctl.state.in_slow_start
    assert ctl.state.w_max == 10.0
    k = ctl.state.k
    assert k == pytest.approx((10.0 * 0.3 / 0.4) ** (1 / 3), rel=1e-12)
    # exactly at the epoch + K the target is back to w_max
    t_at_k = 1_000_000 + int(k * 1e6)
    ctl.on_ack(t_at_k, MTU, 10_000, 1)
    assert ctl.cwnd == pytest.approx(15_000, rel=1e-3)
    # one second past K the curve is convex and above w_max
    ctl.on_ack(t_at_k + 1_000_000, MTU, 10_000, 1)
    want = (0.4 * ((t_at_k + 1_000_000 - 1_000_000) / 1e6 - k) ** 3 + 10.0) * MTU
    assert ctl.cwnd == round(want)


def test_cubic_timeout_restarts_slow_start():
    ctl = CubicController(MTU)
    ctl.cwnd = 30_000
    ctl.state.in_slow_start = False
    ctl.on_loss(2_000_000, "timeout")
    assert ctl.cwnd == cwnd_floor_bytes(MTU)
    assert ctl.state.ssthresh == 21_000             # 0.7 * 30000
    assert ctl.state.in_slow_start
    ctl.on_ack(2_100_000, 3_000, 10_000, 1)
    assert ctl.cwnd == 6_000


def test_cubic_slow_start_exits_at_ssthresh():
    ctl = CubicController(MTU)
    ctl.state.ssthresh = 18_000
    ctl.on_ack(1_000, 3_000, 10_000, 1)             # 15000 -> 18000
    assert not ctl.state.in_slow_start


def test_cubic_never_shrinks_in_avoidance():
    ctl = CubicController(MTU)
    ctl.cwnd = 15_000
    ctl.on_loss(0, "dupack")
    cut = ctl.cwnd
    ctl.on_ack(1_000, MTU, 10_000, 1)               # deep in the concave dip
    assert ctl.cwnd >= cut


def test_cubic_seeded_resumes_from_window():
    ctl = CubicController.seeded(MTU, 18_129, now=5_000_000)
    assert ctl.cwnd == 18_129
    assert not ctl.state.in_slow_start
    assert ctl.state.epoch_start_us == 5_000_000
    assert ctl.state.k == 0.0
    ctl.on_ack(6_000_000, MTU, 10_000, 1)           # 1 s later: +0.4 segments
    want = (0.4 * 1.0 ** 3 + 18_129 / MTU) * MTU
    assert ctl.cwnd == round(want)


# -- natcp -------------------------------------------------------------------------

def test_natcp_tracks_embedded_cubic_before_feedback():
    natcp = NatcpController(MTU)
    plain = CubicController(MTU)
    assert natcp.cwnd == plain.cwnd
    assert natcp.pacing_bps is None
    for t in range(1, 6):
        natcp.on_ack(t * 10_000, MTU, 10_000, 1)
        plain.on_ack(t * 10_000, MTU, 10_000, 1)
        assert natcp.cwnd == plain.cwnd
    natcp.on_loss(100_000, "dupack")
    plain.on_loss(100_000, "dupack")
    assert natcp.cwnd == plain.cwnd


def test_natcp_feedback_sets_window_and_pacing():
    ctl = NatcpController(MTU)
    ctl.on_feedback(52_000, fb(12e6, 6_043))
    assert ctl.cwnd == assisted_cwnd_bytes(2.0, 1, 6_043, 12e6)
    assert ctl.pacing_bps == 12e6                  # not divided by beta
    assert ctl.assisted
    assert ctl.mode_log[-1] == (52_000, "assisted")


def test_natcp_beta_halves_share():
    ctl = NatcpController(MTU)
    ctl.on_feedback(52_000, fb(12e6, 6_043))
    one = ctl.cwnd
    ctl.on_ack(60_000, MTU, 10_000, beta=2)
    assert ctl.cwnd == assisted_cwnd_bytes(2.0, 2, 6_043, 12e6)
    assert abs(one - 2 * ctl.cwnd) <= 1
    assert ctl.pacing_bps == 12e6


def test_natcp_divide_pacing_by_beta_option():
    ctl = NatcpController(MTU, CcConfig(divide_pacing_by_beta=True))
    ctl.on_feedback(52_000, fb(12e6, 6_043))
    ctl.on_ack(60_000, MTU, 10_000, beta=2)
    assert ctl.pacing_bps == 6e6


def test_natcp_floors_under_outage_feedback():
    ctl = NatcpController(MTU)
    ctl.on_feedback(52_000, fb(0.0, 1_005_043))
    assert ctl.cwnd == cwnd_floor_bytes(MTU)
    assert ctl.pacing_bps == pacing_floor_bps(MTU)


def test_natcp_ignores_losses_while_assisted():
    ctl = NatcpController(MTU)
    ctl.on_feedback(52_000, fb(12e6, 6_043))
    before = ctl.cwnd
    ctl.on_loss(60_000, "dupack")
    assert ctl.cwnd == before


def test_natcp_revert_seeds_cubic_from_current_window():
    ctl = NatcpController(MTU)
    ctl.on_feedback(52_000, fb(12e6, 6_043))
    w = ctl.cwnd
    ctl.revert(30_102_000)
    assert not ctl.assisted
    assert ctl.cwnd == w                            # continuity at handover
    assert ctl.pacing_bps is None
    assert ctl.mode_log[-1] == (30_102_000, "fallback")
    # the fallback now grows cubically from the seed
    ctl.on_ack(31_102_000, MTU, 10_000, 1)
    assert ctl.cwnd == round((0.4 + w / MTU) * MTU)
    # fresh feedback re-engages assistance
    ctl.on_feedback(31_200_000, fb(12e6, 6_043, seq=2))
    assert ctl.assisted
    assert ctl.cwnd == w


def test_natcp_uses_watchdog():
    assert NatcpController(MTU).uses_watchdog
    assert NaCubicController(MTU).uses_watchdog
    assert not TgController(MTU).uses_watchdog
    assert not CubicController(MTU).uses_watchdog


def closed_form(cls):
    """``cls`` recomputing on every digest, with window and pacing computed
    in closed form from ``assisted_cwnd_bytes`` on every call, so neither
    the class's early-out nor its cached window takes part."""

    class Reference(cls):
        def on_feedback(self, now, msg):
            self.bl_bw = msg.bl_bw
            self.min_rtt_us = msg.min_rtt
            if not self.assisted:
                self.assisted = True
                if self.uses_watchdog:
                    self.mode_log.append((now, "assisted"))
            self._apply(now)

        def _apply(self, now):
            if not self.assisted:
                self.cwnd, self.pacing_bps = self.cubic.cwnd, None
                return
            if self.own_rtt:
                est = self.rtt_estimate_us(now)
                if est is None:
                    return
                self.min_rtt_us = est
            window = max(cwnd_floor_bytes(MTU), assisted_cwnd_bytes(
                self.cc.alpha, self.beta, self.min_rtt_us, self.bl_bw))
            self.cwnd = min(self.cubic.cwnd, window) if self.cap else window
            rate = self.bl_bw / self.beta if self.cc.divide_pacing_by_beta else self.bl_bw
            self.pacing_bps = max(pacing_floor_bps(MTU), rate)

    return Reference


# few distinct values, so digests repeat and betas change back and forth
CALLS = st.lists(st.one_of(
    st.tuples(st.just("on_ack"), st.integers(0, 4 * MTU),
              st.sampled_from([None, 8_000, 30_000]), st.integers(1, 3)),
    st.tuples(st.just("on_loss"), st.sampled_from(["dupack", "timeout"])),
    st.tuples(st.just("on_feedback"), st.sampled_from([0.0, 6e6, 12e6]),
              st.sampled_from([6_043, 20_000])),
    st.tuples(st.just("revert")),
), max_size=40)


@pytest.mark.parametrize("cls", [NatcpController, NaCubicController, TgController])
@settings(max_examples=100, derandomize=True, deadline=None)
@given(calls=CALLS, divide=st.booleans())
def test_unchanged_digest_early_out_matches_a_full_recompute(cls, calls, divide):
    # a 50 ms horizon ages tg's RTT samples out within a run of calls
    cc = CcConfig(alpha=2.0, divide_pacing_by_beta=divide, tg_horizon_us=50_000)
    ctl, ref = (c(MTU, cc) for c in (cls, closed_form(cls)))
    for i, (method, *args) in enumerate(calls):
        if method == "on_feedback":
            args = [fb(*args, seq=i)]
        now = (i + 1) * 10_000
        getattr(ctl, method)(now, *args)
        getattr(ref, method)(now, *args)
        assert (ctl.cwnd, ctl.pacing_bps) == (ref.cwnd, ref.pacing_bps)
        assert ctl.mode_log == ref.mode_log


# digests over the whole range of rates: below the pacing floor, 0, and so
# high that a packet's gap rounds up to 1 us
PACING_CALLS = st.lists(st.one_of(
    st.tuples(st.just("on_ack"), st.integers(0, 4 * MTU),
              st.one_of(st.none(), st.integers(1, 100_000)), st.integers(0, 4)),
    st.tuples(st.just("on_loss"), st.sampled_from(["dupack", "timeout"])),
    st.tuples(st.just("on_feedback"),
              st.one_of(st.just(0.0), st.floats(1.0, 1e13)),
              st.integers(0, 100_000)),
    st.tuples(st.just("revert")),
), max_size=40)


@pytest.mark.parametrize("cls", [NatcpController, NaCubicController, TgController])
@settings(max_examples=100, derandomize=True, deadline=None)
@given(calls=PACING_CALLS, divide=st.booleans())
def test_the_pacing_gap_follows_every_rate_the_controller_sets(cls, calls, divide):
    ctl = cls(MTU, CcConfig(divide_pacing_by_beta=divide, tg_horizon_us=50_000))
    for i, (method, *args) in enumerate(calls):
        if method == "on_feedback":
            args = [fb(*args, seq=i)]
        getattr(ctl, method)((i + 1) * 10_000, *args)
        # the gap the sender reads, set with every rate
        assert ctl.gap_us == (None if ctl.pacing_bps is None
                              else max(1, math.ceil(MTU * 8e6 / ctl.pacing_bps)))


@pytest.mark.parametrize("cls", [NatcpController, NaCubicController])
def test_the_same_digest_after_a_revert_restores_the_pacing(cls):
    ctl = cls(MTU)
    ctl.on_feedback(52_000, fb(12e6, 6_043))
    assisted = (ctl.cwnd, ctl.pacing_bps, ctl.gap_us)
    ctl.on_feedback(72_000, fb(12e6, 6_043, seq=2))
    assert (ctl.cwnd, ctl.pacing_bps, ctl.gap_us) == assisted
    ctl.revert(200_000)
    assert (ctl.pacing_bps, ctl.gap_us) == (None, None)
    # the digest equals the one the cached window was computed from
    ctl.on_feedback(220_000, fb(12e6, 6_043, seq=3))
    assert (ctl.cwnd, ctl.pacing_bps, ctl.gap_us) == assisted
    assert (ctl.pacing_bps, ctl.gap_us) == (12e6, 1_000)


def test_cubic_feedback_never_moves_the_decision():
    ctl = CubicController(MTU)
    ctl.on_feedback(52_000, fb(12e6, 6_043))
    assert (ctl.cwnd, ctl.pacing_bps, ctl.gap_us) == (10 * MTU, None, None)


def test_tg_recomputes_on_a_repeated_digest():
    tg = TgController(MTU, CcConfig(tg_horizon_us=500_000))
    tg.on_ack(0, MTU, 10_000, 1)
    tg.on_ack(300_000, MTU, 40_000, 1)
    # the digest's min-RTT equals tg's own estimate, so only the ageing of
    # its samples can tell the repeat apart
    tg.on_feedback(350_000, fb(12e6, 10_000))
    assert (tg.min_rtt_us, tg.cwnd) == (10_000, assisted_cwnd_bytes(2.0, 1, 10_000, 12e6))
    # the same digest again, once the 10 ms sample has aged out of the horizon
    tg.on_feedback(600_000, fb(12e6, 10_000, seq=2))
    assert tg.cwnd == assisted_cwnd_bytes(2.0, 1, 40_000, 12e6)


# -- nacubic -------------------------------------------------------------------------

def test_nacubic_caps_cubic_while_fresh():
    ctl = NaCubicController(MTU)
    ctl.cubic.cwnd = 60_000
    ctl.on_feedback(52_000, fb(12e6, 6_043))
    cap = assisted_cwnd_bytes(2.0, 1, 6_043, 12e6)
    assert ctl.cwnd == cap                          # cubic wants more, capped
    assert ctl.pacing_bps == 12e6
    ctl.cubic.cwnd = 9_000                          # cubic below the cap
    ctl.on_ack(60_000, 0, 10_000, 1)
    assert ctl.cwnd <= max(9_000, cap)


def test_nacubic_losses_still_cut_the_underlying_cubic():
    ctl = NaCubicController(MTU)
    ctl.on_feedback(52_000, fb(12e6, 6_043))
    ctl.cubic.cwnd = 12_000
    ctl.cubic.state.in_slow_start = False
    ctl.on_loss(60_000, "dupack")
    assert ctl.cubic.cwnd == 8_400                 # 0.7 * 12000


def test_nacubic_revert_uncaps_and_unpaces():
    ctl = NaCubicController(MTU)
    ctl.cubic.cwnd = 60_000
    ctl.on_feedback(52_000, fb(12e6, 6_043))
    assert ctl.cwnd < 60_000
    ctl.revert(500_000)
    assert ctl.cwnd == 60_000
    assert ctl.pacing_bps is None
    assert ctl.mode_log[-1] == (500_000, "fallback")
    ctl.on_feedback(550_000, fb(12e6, 6_043, seq=2))
    assert ctl.cwnd < 60_000                        # re-capped


# -- bandwidth-only guidance -----------------------------------------------------------

def test_tg_bootstraps_as_cubic():
    tg = TgController(MTU)
    plain = CubicController(MTU)
    tg.on_ack(10_000, 3_000, 10_000, 1)
    plain.on_ack(10_000, 3_000, 10_000, 1)
    assert tg.cwnd == plain.cwnd
    tg.on_loss(20_000, "dupack")
    plain.on_loss(20_000, "dupack")
    assert tg.cwnd == plain.cwnd


def test_tg_window_from_own_min_rtt():
    tg = TgController(MTU)
    tg.on_ack(10_000, MTU, 10_000, 1)               # rtt sample: 10 ms
    tg.on_feedback(50_000, fb(12e6, 6_043))         # only bl_bw is consumed
    assert tg.cwnd == assisted_cwnd_bytes(2.0, 1, 10_000, 12e6)
    assert tg.pacing_bps == 12e6
    # a smaller sample lowers the estimate immediately
    tg.on_ack(60_000, MTU, 8_000, 1)
    assert tg.cwnd == assisted_cwnd_bytes(2.0, 1, 8_000, 12e6)


def test_tg_min_filter_expires_after_horizon():
    tg = TgController(MTU, CcConfig(tg_horizon_us=10_000_000))
    tg.on_ack(10_000, MTU, 10_000, 1)
    tg.on_feedback(50_000, fb(12e6, 0))
    for t in range(1, 10):                          # later, larger samples
        tg.on_ack(t * 1_000_000, MTU, 20_000, 1)
    assert tg.rtt_estimate_us(9_000_000) == 10_000  # old min still alive
    assert tg.rtt_estimate_us(10_010_001) == 20_000  # expired: filter inflates
    tg.on_feedback(10_050_000, fb(12e6, 0, seq=2))
    assert tg.cwnd == assisted_cwnd_bytes(2.0, 1, 20_000, 12e6)


def test_tg_ignores_losses_after_feedback():
    tg = TgController(MTU)
    tg.on_ack(10_000, MTU, 10_000, 1)
    tg.on_feedback(50_000, fb(12e6, 0))
    before = tg.cwnd
    tg.on_loss(60_000, "dupack")
    assert tg.cwnd == before


def test_tg_ignores_beta():
    tg = TgController(MTU)
    tg.on_ack(10_000, MTU, 10_000, beta=1)
    tg.on_feedback(50_000, fb(12e6, 0))
    one = tg.cwnd
    tg.on_ack(60_000, MTU, 10_000, beta=4)
    assert tg.cwnd == one


# -- factory ---------------------------------------------------------------------------

def test_make_controller_mapping():
    assert isinstance(make_controller("cubic", MTU), CubicController)
    assert isinstance(make_controller("natcp", MTU), NatcpController)
    assert isinstance(make_controller("nacubic", MTU), NaCubicController)
    assert isinstance(make_controller("tg", MTU), TgController)
    with pytest.raises(ValueError, match="unknown scheme"):
        make_controller("reno", MTU)


def test_make_controller_passes_options():
    cc = CcConfig(alpha=3.0, divide_pacing_by_beta=True, tg_horizon_us=5_000_000)
    ctl = make_controller("natcp", MTU, cc)
    ctl.on_feedback(52_000, fb(12e6, 10_000))
    assert ctl.cwnd == assisted_cwnd_bytes(3.0, 1, 10_000, 12e6)
    ctl.on_ack(60_000, MTU, 10_000, 2)
    assert ctl.pacing_bps == 6e6                   # divided by beta
    tg = make_controller("tg", MTU, cc)
    assert ctl.cc is tg.cc is cc                    # read in place, not copied


def test_no_config_means_the_default_config():
    for scheme in ("natcp", "nacubic", "tg"):
        assert make_controller(scheme, MTU).cc == CcConfig()
