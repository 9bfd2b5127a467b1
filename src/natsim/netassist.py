"""Network-side measurement entity colocated with the base station.

Every feedback period it measures the offered bottleneck capacity
(delivery opportunities in the elapsed window, independent of backlog) and a
three-part minimum-RTT estimate, and ships both to the server in one digest
that is delivered to every UE, either out-of-band (dedicated low-latency
channel) or in-band (riding each UE's next dequeued data packet, reaching
the server with that packet's ack).  Neither value depends on the UE: every
UE is attributed the same round-robin share of the one schedule, the probe
term depends only on the time and the uplink term is a constant.  The
channel is still charged one digest per UE per period.

The min-RTT estimate is the sum of
  part 1: the latest completed priority-probe round trip (no queuing),
  part 2: head-of-line transmission delay of one MTU at the measured
          capacity (clamped to a ceiling during outages),
  part 3: feedback-sized-packet serialization at the uplink depletion rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .emulink import PathConfig
from .trace import TraceSchedule


class MeasureError(RuntimeError):
    """Raised when a measurement is requested before it can exist."""


@dataclass(frozen=True)
class FeedbackMsg:
    """One period's feedback digest, the same for every UE."""

    seq: int
    bl_bw: float              # offered bottleneck capacity, bits/s
    min_rtt: int              # microseconds
    t_emitted: int            # microseconds


@dataclass
class NetAssistConfig:
    period_us: int = 50_000
    mode: str = "oob"                  # "oob" or "ib"
    probe_interval_us: int = 50_000
    # bytes on the wire per message
    feedback_size: int = field(default=64, metadata={"key": "feedback_size_bytes"})
    part2_ceiling_us: int = 1_000_000  # outage clamp for the HOL term
    suppress_after_us: int | None = None  # fault injection: stop emitting


class NetAssist:
    """Periodic capacity and min-RTT measurement for the UEs of one cell."""

    def __init__(
        self,
        cfg: NetAssistConfig,
        schedule: TraceSchedule,
        path: PathConfig,
        ue_ids: list[int],
        probe_rtt: Callable[[int], int],
    ) -> None:
        self.cfg = cfg
        self.schedule = schedule
        self.path = path
        self.ue_ids = list(ue_ids)
        self._probe_rtt = probe_rtt
        self._seq = 0  # periods emitted
        self.emitted_count = 0

    # -- probes -----------------------------------------------------------

    def latest_probe_us(self, now: int) -> int:
        """Sample of the most recent probe whose round trip completed by now.

        Probes launch at multiples of the probe interval starting at t=0 and
        complete one network round trip later.  Raises MeasureError when no
        probe has completed yet.
        """
        iv = self.cfg.probe_interval_us
        k = now // iv
        while k >= 0:
            fire = k * iv
            sample = self._probe_rtt(fire)
            if fire + sample <= now:
                return sample
            k -= 1
        raise MeasureError("uninitialized: no completed probe sample yet")

    # -- per-window measurements -------------------------------------------

    def measure_bl_bw(self, t0: int, t1: int) -> float:
        """Offered capacity (bits/s) for each UE over [t0, t1).

        Counts delivery opportunities whether or not they were used; with
        several active UEs each is attributed its round-robin share, so the
        value is the same for every UE.

        When the window is shorter than the current opportunity spacing it
        contains no opportunity at all; reporting zero would confuse a slow
        link with an outage.  In that case the window is stretched back to
        the most recent opportunity, so the estimate reflects the actual
        spacing and decays smoothly the longer the link stays silent.
        """
        if t1 <= t0:
            raise MeasureError("measurement window must have positive length")
        t0 = max(0, t0)
        share = max(1, len(self.ue_ids))
        bits = self.schedule.capacity_bits(t0, t1)
        if bits == 0 and self.schedule.n_opportunities > 0:
            last = self.schedule.index_at_or_after(t1) - 1
            if last >= 0 and self.schedule.instant(last) < t0:
                t0 = self.schedule.instant(last)
                bits = self.schedule.capacity_bits(t0, t1)
        return bits * 1e6 / (t1 - t0) / share

    def min_rtt_parts(self, bl_bw: float, now: int) -> tuple[int, int, int]:
        part1 = self.latest_probe_us(now)
        if bl_bw > 0:
            part2 = min(self.cfg.part2_ceiling_us,
                        int(round(self.schedule.mtu * 8 * 1e6 / bl_bw)))
        else:
            part2 = self.cfg.part2_ceiling_us
        part3 = self.path.serialization_us(self.cfg.feedback_size)
        return part1, part2, part3

    def measure_min_rtt(self, bl_bw: float, now: int) -> int:
        return sum(self.min_rtt_parts(bl_bw, now))

    # -- emission -----------------------------------------------------------

    def emit(self, now: int) -> FeedbackMsg | None:
        """Measure the period ending at ``now`` into the digest every UE gets.

        No digest exists before the first probe completes its round trip:
        such a period emits nothing and charges nothing, so flows stay on
        their fallback until the first digest.
        """
        suppress = self.cfg.suppress_after_us
        if not self.ue_ids or (suppress is not None and now >= suppress):
            return None
        bl_bw = self.measure_bl_bw(now - self.cfg.period_us, now)
        try:
            min_rtt = self.measure_min_rtt(bl_bw, now)
        except MeasureError:  # the probe fired at t = 0 is still out
            return None
        self._seq += 1
        self.emitted_count += len(self.ue_ids)
        return FeedbackMsg(self._seq, bl_bw, min_rtt, now)

    def overhead_kbps(self, duration_us: int) -> float:
        """Feedback-channel load: one digest per UE per period, in bytes over
        the run duration."""
        if duration_us <= 0 or self.cfg.mode != "oob":
            return 0.0
        return self.emitted_count * self.cfg.feedback_size * 8 * 1e6 / duration_us / 1e3
