"""Congestion controllers: cubic baseline plus three assisted schemes.

Schemes (config keys):
  cubic   - standard cubic window growth, loss-driven, unpaced.
  natcp   - fully feedback-driven: window = alpha * (1/beta) * minRTT * BL_Bw,
            pacing at the reported bottleneck capacity.  Falls back to an
            embedded cubic before the first feedback or after the watchdog
            fires, and re-engages on the next feedback.
  nacubic - unmodified cubic underneath, with the feedback window as a cap
            and pacing at the reported capacity while feedback is fresh.
  tg      - bandwidth-only guidance: pacing at the reported capacity and a
            window built from the sender's own distributed min-RTT estimate
            (running minimum of ack RTT samples over a sliding horizon).

The three assisted schemes share one core, ``NatcpController``, with two
class-level choices, both off for natcp:

  cap      off: the feedback window replaces the embedded cubic, which is
           frozen while assisted and re-seeded from the current window on
           revert.  On (nacubic): it caps a cubic that keeps running on
           every ack and loss.
  own_rtt  off: min-RTT comes from feedback, and a watchdog reverts to the
           cubic when feedback stops, logged in ``mode_log``.  On (tg):
           min-RTT is the minimum of the sender's own ack RTT samples over
           ``horizon_us``; no beta term, no watchdog, no mode log.

The controller is the one home of the decision: ``cwnd`` (bytes),
``pacing_bps`` (None = unpaced) and ``gap_us``, the pacing gap of one MTU
packet, which setting ``pacing_bps`` computes.  The sender keeps no copy;
it reads ``cwnd`` and ``gap_us`` each time it tests whether it may send.

``on_feedback`` counts every digest.  natcp and nacubic recompute only
when a digest can move the decision: while assisted, a digest whose
``bl_bw`` and ``min_rtt`` equal the applied ones is skipped, since every
ack, loss and revert that changes another input already ends in
``_apply``.  Cubic only counts them.  tg recomputes on every digest,
because its ``_apply`` ages the RTT samples by ``now``.

The assisted core caches the feedback window and sets the pacing rate
with it; both depend only on beta, min-RTT and ``bl_bw``.  A change of
beta or of tg's own min-RTT clears the cache, and so does every digest
that passes the early-out, including the one that re-engages after a
revert, whose fallback unpaced the flow.  An ack that finds the cache
set costs nacubic ``min(cubic.cwnd, window)``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .netassist import FeedbackMsg

CUBIC_C = 0.4
CUBIC_BETA = 0.7
INITIAL_WINDOW_SEGMENTS = 10
MIN_WINDOW_SEGMENTS = 2
# Floor pacing rate: one MTU packet per 100 ms.
PACING_FLOOR_INTERVAL_US = 100_000

LOSS_DUPACK = "dupack"
LOSS_TIMEOUT = "timeout"

def pacing_floor_bps(mtu: int) -> float:
    return mtu * 8 * 1e6 / PACING_FLOOR_INTERVAL_US


def cwnd_floor_bytes(mtu: int) -> int:
    return MIN_WINDOW_SEGMENTS * mtu


def assisted_cwnd_bytes(alpha: float, beta: int, min_rtt_us: int, bl_bw_bps: float) -> int:
    """Feedback-driven window: alpha * (1/beta) * minRTT * BL_Bw, in bytes."""
    return int(round(alpha * min_rtt_us * bl_bw_bps / (8e6 * beta)))


@dataclass
class CubicState:
    """Cubic curve parameters; window units are segments (MSS)."""

    w_max: float = 0.0
    k: float = 0.0
    epoch_start_us: int | None = None
    ssthresh: int | None = None     # bytes; None = infinite
    in_slow_start: bool = True


def cubic_window(t_s: float, state: CubicState) -> float:
    """Cubic growth curve W(t) = C*(t-K)^3 + W_max, in segments."""
    return CUBIC_C * (t_s - state.k) ** 3 + state.w_max


def cubic_k(w_max: float) -> float:
    """Time (s) for the curve to return to w_max after a loss reduction."""
    return (w_max * (1.0 - CUBIC_BETA) / CUBIC_C) ** (1.0 / 3.0)


class Controller:
    """Base controller: window floor, pacing floor, bookkeeping."""

    uses_watchdog = False

    def __init__(self, mtu: int) -> None:
        self.mtu = mtu
        # fixed per controller; the assisted core clamps on every feedback
        self._cwnd_floor = cwnd_floor_bytes(mtu)
        self._pacing_floor = pacing_floor_bps(mtu)
        self.cwnd = INITIAL_WINDOW_SEGMENTS * mtu
        self.pacing_bps = None
        self.fb_count = 0
        self.mode_log: list[tuple[int, str]] = []

    @property
    def pacing_bps(self) -> float | None:
        return self._pacing_bps

    @pacing_bps.setter
    def pacing_bps(self, bps: float | None) -> None:
        self._pacing_bps = bps
        # microseconds between MTU packets; None = unpaced
        self.gap_us = None if bps is None else max(1, math.ceil(self.mtu * 8 * 1e6 / bps))

    # callbacks ------------------------------------------------------------
    def on_ack(self, now: int, acked_bytes: int, rtt_us: int | None, beta: int) -> None:
        pass

    def on_loss(self, now: int, kind: str) -> None:
        pass

    def on_feedback(self, now: int, msg: FeedbackMsg) -> None:
        self.fb_count += 1

    def revert(self, now: int) -> None:
        pass

    # helpers --------------------------------------------------------------
    def _clamp_cwnd(self, cwnd_bytes: float) -> int:
        return max(self._cwnd_floor, int(round(cwnd_bytes)))

    def _clamp_pacing(self, bps: float) -> float:
        return max(self._pacing_floor, bps)


class CubicController(Controller):
    """Loss-driven cubic with slow start; no pacing."""

    def __init__(self, mtu: int) -> None:
        super().__init__(mtu)
        self.state = CubicState()

    @classmethod
    def seeded(cls, mtu: int, cwnd_bytes: int, now: int) -> "CubicController":
        """Fresh instance continuing from an externally chosen window.

        Starts in congestion avoidance on the convex part of the curve with
        W(0) equal to the seed window.
        """
        ctl = cls(mtu)
        ctl.cwnd = max(ctl._cwnd_floor, cwnd_bytes)
        ctl.state = CubicState(
            w_max=ctl.cwnd / mtu,
            k=0.0,
            epoch_start_us=now,
            ssthresh=ctl.cwnd,
            in_slow_start=False,
        )
        return ctl

    def on_ack(self, now: int, acked_bytes: int, rtt_us: int | None, beta: int) -> None:
        st = self.state
        if st.in_slow_start:
            self.cwnd += acked_bytes
            if st.ssthresh is not None and self.cwnd >= st.ssthresh:
                st.in_slow_start = False
                st.epoch_start_us = now
            return
        # every way out of slow start sets epoch_start_us
        t_s = (now - st.epoch_start_us) / 1e6
        target = cubic_window(t_s, st) * self.mtu
        if target > self.cwnd:
            self.cwnd = self._clamp_cwnd(target)

    def on_loss(self, now: int, kind: str) -> None:
        st = self.state
        st.w_max = self.cwnd / self.mtu
        st.k = cubic_k(st.w_max)
        reduced = self._clamp_cwnd(self.cwnd * CUBIC_BETA)
        if kind == LOSS_TIMEOUT:
            st.ssthresh = reduced
            self.cwnd = self._cwnd_floor
            st.in_slow_start = True
            st.epoch_start_us = None
        else:
            self.cwnd = reduced
            st.ssthresh = reduced
            st.in_slow_start = False
            st.epoch_start_us = now


class NatcpController(Controller):
    """The assisted core, and natcp itself: both choices off."""

    cap = False      # on for nacubic; see the module docstring
    own_rtt = False  # on for tg
    uses_watchdog = True  # off for tg, with own_rtt

    def __init__(
        self,
        mtu: int,
        alpha: float = 2.0,
        divide_pacing_by_beta: bool = False,
        horizon_us: int = 10_000_000,
    ) -> None:
        super().__init__(mtu)
        self.alpha = alpha
        self.divide_pacing_by_beta = divide_pacing_by_beta
        self.horizon_us = horizon_us
        self.beta = 1
        self.assisted = False
        self.bl_bw = 0.0
        self.min_rtt_us = 0
        self._samples: deque[tuple[int, int]] = deque()  # own_rtt: (t, rtt)
        self._last_est_us: int | None = None
        self._window: int | None = None  # feedback window; None = recompute
        self.cubic = CubicController(mtu)
        self.cwnd = self.cubic.cwnd
        if self.uses_watchdog:
            self.mode_log.append((0, "fallback"))

    def _apply(self, now: int) -> None:
        if not self.assisted:
            self.cwnd = self.cubic.cwnd
            self.pacing_bps = None
            return
        if self.own_rtt:
            est = self.rtt_estimate_us(now)
            if est is None:
                return  # no RTT sample yet: keep the bootstrap window, unpaced
            if est != self.min_rtt_us:
                self.min_rtt_us = est
                self._window = None
        window = self._window
        if window is None:
            window = self._window = self._clamp_cwnd(
                assisted_cwnd_bytes(self.alpha, self.beta, self.min_rtt_us, self.bl_bw)
            )
            rate = self.bl_bw / self.beta if self.divide_pacing_by_beta else self.bl_bw
            self.pacing_bps = self._clamp_pacing(rate)
        self.cwnd = min(self.cubic.cwnd, window) if self.cap else window

    def on_feedback(self, now: int, msg: FeedbackMsg) -> None:
        self.fb_count += 1
        if (self.assisted and not self.own_rtt and msg.bl_bw == self.bl_bw
                and msg.min_rtt == self.min_rtt_us):
            return  # an unchanged digest: the decision already reflects it
        self.bl_bw = msg.bl_bw
        self.min_rtt_us = msg.min_rtt  # own_rtt replaces it in _apply
        self._window = None
        if not self.assisted:
            self.assisted = True
            if self.uses_watchdog:
                self.mode_log.append((now, "assisted"))
        self._apply(now)

    def on_ack(self, now: int, acked_bytes: int, rtt_us: int | None, beta: int) -> None:
        if self.own_rtt:  # beta stays 1, so it divides neither window nor pacing
            if rtt_us is not None:  # keep the samples' RTTs ascending
                while self._samples and self._samples[-1][1] >= rtt_us:
                    self._samples.pop()
                self._samples.append((now, rtt_us))
        elif beta != self.beta:  # beta moved; a count below 1 stands for 1
            self.beta = max(1, beta)
            self._window = None
        elif self.assisted and not self.cap:
            return  # a frozen cubic and unchanged beta: the window stands
        if self.cap or not self.assisted:
            self.cubic.on_ack(now, acked_bytes, rtt_us, beta)
        self._apply(now)

    def on_loss(self, now: int, kind: str) -> None:
        if self.cap or not self.assisted:
            self.cubic.on_loss(now, kind)
            self._apply(now)

    def revert(self, now: int) -> None:
        """Watchdog expiry: resume loss-driven behavior from the current window."""
        if not self.assisted or not self.uses_watchdog:
            return
        self.assisted = False
        if not self.cap:
            self.cubic = CubicController.seeded(self.mtu, self.cwnd, now)
        self._apply(now)
        self.mode_log.append((now, "fallback"))

    def rtt_estimate_us(self, now: int) -> int | None:
        horizon_start = now - self.horizon_us
        while self._samples and self._samples[0][0] <= horizon_start:
            self._samples.popleft()
        if self._samples:
            self._last_est_us = self._samples[0][1]
        return self._last_est_us


class NaCubicController(NatcpController):
    """Unmodified cubic capped by the feedback window while feedback is fresh."""

    cap = True


class TgController(NatcpController):
    """Bandwidth-only guidance with a sender-side distributed min-RTT."""

    own_rtt = True
    uses_watchdog = False


CONTROLLERS = {
    "natcp": NatcpController,
    "nacubic": NaCubicController,
    "cubic": CubicController,
    "tg": TgController,
}
SCHEMES = tuple(CONTROLLERS)


def make_controller(
    scheme: str,
    mtu: int,
    alpha: float = 2.0,
    divide_pacing_by_beta: bool = False,
    tg_horizon_us: int = 10_000_000,
) -> Controller:
    cls = CONTROLLERS.get(scheme)
    if cls is None:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if cls is CubicController:
        return cls(mtu)
    return cls(mtu, alpha, divide_pacing_by_beta, tg_horizon_us)
