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

``make_controller(scheme, mtu, cc)`` builds each one.  ``cc``, a
``CcConfig``, holds the ``cc.*`` keys: alpha, whether pacing divides by
beta, and tg's horizon.  The assisted core keeps it as ``cc`` and reads it
in place: ``_apply`` reads alpha and the pacing choice when it recomputes,
and ``rtt_estimate_us`` the horizon.  Cubic reads none.

The controller is the one home of the decision: ``cwnd`` (bytes),
``pacing_bps`` (None = unpaced) and ``gap_us``, the pacing gap of one MTU
packet; ``_pace`` sets the two together.  The sender keeps no copy; it
reads ``cwnd`` and ``gap_us`` each time it tests whether it may send.

No controller counts digests: the run's feedback log names every flow that
received each one.  natcp and nacubic recompute only when a digest can
move the decision: while assisted, a digest whose ``bl_bw`` and
``min_rtt`` equal the applied ones is skipped, since every ack, loss and
revert that changes another input already ends in ``_apply``.  Cubic
ignores them.  tg recomputes on every digest, because its ``_apply`` ages
the RTT samples by ``now``.

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
from dataclasses import dataclass, field

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
class CcConfig:
    """The assisted schemes' settings, read in place by each controller.

    Each field is a config key ``cc.<name>``; its metadata bounds it as
    ``SimConfig``'s fields are bounded.  Cubic reads none of them.
    """

    # at most a window of a million bandwidth-delay products; far above, it
    # overflows a float
    alpha: float = field(default=2.0, metadata={"sign": "positive", "max": 1_000_000})
    divide_pacing_by_beta: bool = False
    # tg's min-RTT sliding window
    tg_horizon_us: int = field(default=10_000_000, metadata={"sign": "positive"})


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
        self.pacing_bps = self.gap_us = None  # unpaced; _pace sets both
        self.mode_log: list[tuple[int, str]] = []

    def _pace(self, bps: float | None) -> None:
        """Pace at ``bps`` (None = unpaced), with ``gap_us`` the microseconds
        between MTU packets."""
        self.pacing_bps = bps
        self.gap_us = None if bps is None else max(1, math.ceil(self.mtu * 8 * 1e6 / bps))

    # callbacks ------------------------------------------------------------
    def on_ack(self, now: int, acked_bytes: int, rtt_us: int | None, beta: int) -> None:
        pass

    def on_loss(self, now: int, kind: str) -> None:
        pass

    def on_feedback(self, now: int, msg: FeedbackMsg) -> None:
        pass

    def revert(self, now: int) -> None:
        pass

    # helpers --------------------------------------------------------------
    def _clamp_cwnd(self, cwnd_bytes: float) -> int:
        return max(self._cwnd_floor, int(round(cwnd_bytes)))


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

    def __init__(self, mtu: int, cc: CcConfig | None = None) -> None:
        super().__init__(mtu)
        self.cc = CcConfig() if cc is None else cc
        self.beta = 1
        self.assisted = False
        self.bl_bw = 0.0
        self.min_rtt_us = 0
        self._samples: deque[tuple[int, int]] = deque()  # own_rtt: (t, rtt)
        self._last_est_us: int | None = None
        self._window: int | None = None  # feedback window; None = recompute
        self.cubic = CubicController(mtu)
        if self.uses_watchdog:
            self.mode_log.append((0, "fallback"))

    def _apply(self, now: int) -> None:
        if not self.assisted:
            self.cwnd = self.cubic.cwnd
            self._pace(None)
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
                assisted_cwnd_bytes(self.cc.alpha, self.beta, self.min_rtt_us, self.bl_bw)
            )
            rate = self.bl_bw / self.beta if self.cc.divide_pacing_by_beta else self.bl_bw
            self._pace(max(self._pacing_floor, rate))
        self.cwnd = min(self.cubic.cwnd, window) if self.cap else window

    def on_feedback(self, now: int, msg: FeedbackMsg) -> None:
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
        horizon_start = now - self.cc.tg_horizon_us
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


def make_controller(scheme: str, mtu: int, cc: CcConfig | None = None) -> Controller:
    """A new ``scheme`` controller; ``cc`` (None: ``CcConfig()``) sets the
    assisted schemes."""
    cls = CONTROLLERS.get(scheme)
    if cls is None:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    return cls(mtu) if cls is CubicController else cls(mtu, cc)
