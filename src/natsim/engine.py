"""Deterministic event-driven simulation core and run metrics.

One run wires together: bulk senders (one per flow), the trace-driven
bottleneck link with per-UE droptail queues, per-UE receivers, and the
network-side measurement entity whose one feedback digest per period the
engine hands to every UE.  Everything advances on a single
integer-microsecond event heap.  Ties break by the point at which the
causing event was handled: each event carries a tick taken from one
counter, either when it is scheduled or, for a watchdog check, reserved
when the feedback that arms it is applied.  Identical configurations
therefore replay identically.

Each flow keeps at most one watchdog check on the heap.  Feedback applied
while a check is pending only records the new deadline and its reserved
tick; when the pending check fires early it moves itself to that key, so
the check that can revert a flow runs exactly where it would if every
feedback had pushed one of its own.

The per-packet event log has one optional sink: the bound ``_log`` when
``log.events`` is on, else ``None``.  The transmit and deliver closures,
the ack handler and the link each test that one sink at their log sites;
with the log off ``RunResult.event_log`` stays empty.

Randomness: one generator seeded from the config drives air-interface loss
(and nothing else); synthetic walk traces derive their own generator from
the same seed at construction time.
"""

from __future__ import annotations

import itertools
import math
import random
import statistics
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable

from .cc import make_controller
from .config import SimConfig, resolve_schedule
from .emulink import BtsLink, Packet
from .netassist import FeedbackMsg, NetAssist
from .transport import Sender, UeReceiver

WATCHDOG_PERIODS = 3   # feedback silence tolerated before reverting


class EventLoop:
    """Minimal time-ordered callback heap (integer microseconds)."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Callable, tuple]] = []
        self._tick = itertools.count()
        self.processed = 0

    def schedule(self, t_us: int, fn: Callable, args: tuple = (),
                 tick: int | None = None) -> None:
        """Push fn(t_us, *args); ``tick`` is one taken from ``reserve``."""
        if tick is None:
            tick = next(self._tick)
        heappush(self._heap, (t_us, tick, fn, args))

    def reserve(self) -> int:
        """Take the next tie-break tick for an event pushed later."""
        return next(self._tick)

    def run_until(self, t_end_us: int) -> None:
        heap = self._heap
        while heap and heap[0][0] <= t_end_us:
            t, _, fn, args = heappop(heap)
            self.processed += 1
            fn(t, *args)


@dataclass
class FlowStats:
    flow_id: int
    ue_id: int
    scheme: str
    start_us: int
    sent_segments: int = 0
    retransmits: int = 0
    timeouts: int = 0
    delivered_bytes: int = 0
    unique_bytes: int = 0
    drops: int = 0
    fb_count: int = 0
    mode_log: list = field(default_factory=list)
    # (t_us, size, first_time) per arriving data packet
    deliveries: list = field(default_factory=list)


@dataclass
class RunResult:
    scheme: str
    trace: str
    duration_us: int
    seed: int
    flows: list[FlowStats]
    qdelay_samples_us: list[int]
    event_log: list[tuple]
    feedback_log: list[tuple]
    overhead_kbps: float
    queue_drops: int
    conservation_ok: bool

    # -- aggregate metrics ---------------------------------------------------

    @property
    def duration_s(self) -> float:
        return self.duration_us / 1e6

    def throughput_mbps(self) -> float:
        total = sum(f.delivered_bytes for f in self.flows)
        return total * 8 / self.duration_us

    def goodput_mbps(self) -> float:
        total = sum(f.unique_bytes for f in self.flows)
        return total * 8 / self.duration_us

    def avg_qdelay_ms(self) -> float | None:
        if not self.qdelay_samples_us:
            return None
        return statistics.fmean(self.qdelay_samples_us) / 1000

    def p95_qdelay_ms(self) -> float | None:
        if not self.qdelay_samples_us:
            return None
        return percentile(self.qdelay_samples_us, 0.95) / 1000

    def power95(self) -> float | None:
        return compute_power(self.throughput_mbps(), self.p95_qdelay_ms())

    def retrans(self) -> int:
        return sum(f.retransmits for f in self.flows)

    def drops(self) -> int:
        return sum(f.drops for f in self.flows)

    def flow_goodput_mbps(self, flow_id: int, t0_us: int = 0, t1_us: int | None = None) -> float:
        """First-delivery rate for one flow over [t0, t1] (Mbit/s)."""
        if t1_us is None:
            t1_us = self.duration_us
        if t1_us <= t0_us:
            raise ValueError("window must have positive length")
        fs = self.flows[flow_id]
        total = sum(size for (t, size, first) in fs.deliveries
                    if first and t0_us <= t <= t1_us)
        return total * 8 / (t1_us - t0_us)

    def departures(self) -> list[tuple]:
        """Bottleneck departure log: (t_us, flow, seq, qdelay_us) rows.

        Every run sends at least one packet, so an empty event log means the
        run did not record it (``log.events`` off).
        """
        if not self.event_log:
            raise ValueError("the run did not record its event log; "
                             "set log.events to read departures")
        return [(t, fl, seq, q) for (t, kind, fl, seq, q) in self.event_log
                if kind == "deq"]

    def summary_row(self) -> dict:
        # each statistic once: the two powers reuse the throughput and delays
        throughput = self.throughput_mbps()
        avg_qdelay = self.avg_qdelay_ms()
        p95_qdelay = self.p95_qdelay_ms()
        return {
            "scheme": self.scheme,
            "trace": self.trace,
            "duration_s": self.duration_s,
            "throughput_mbps": throughput,
            "goodput_mbps": self.goodput_mbps(),
            "avg_qdelay_ms": avg_qdelay,
            "p95_qdelay_ms": p95_qdelay,
            "power": compute_power(throughput, avg_qdelay),
            "power95": compute_power(throughput, p95_qdelay),
            "retrans": self.retrans(),
            "drops": self.drops(),
            "feedback_overhead_kbps": self.overhead_kbps,
        }


SUMMARY_COLUMNS = (
    "scheme", "trace", "duration_s", "throughput_mbps", "goodput_mbps",
    "avg_qdelay_ms", "p95_qdelay_ms", "power", "power95", "retrans",
    "drops", "feedback_overhead_kbps",
)


def percentile(samples: list, q: float) -> float:
    """Nearest-rank percentile: smallest sample with at least q coverage."""
    if not samples:
        raise ValueError("no samples")
    if not (0 < q <= 1):
        raise ValueError("q must be in (0, 1]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def compute_power(throughput_mbps: float, delay_ms: float | None) -> float | None:
    """Throughput/delay ratio; infinite when the path stayed queue-free."""
    if delay_ms is None:
        return None
    if delay_ms == 0:
        return math.inf
    return throughput_mbps / delay_ms


class Simulation:
    """One configured run: wiring, event orchestration, result collection."""

    def __init__(self, cfg: SimConfig) -> None:
        cfg.require_valid()
        self.cfg = cfg
        self.schedule = resolve_schedule(cfg)
        self.loop = EventLoop()
        self.rng = random.Random(cfg.seed)
        self.event_log: list[tuple] = []
        self.feedback_log: list[tuple] = []
        # event-log sink shared by every log site; None when no log is recorded
        self._sink = self._log if cfg.log_events else None

        self.link = BtsLink(self.schedule, cfg.path, self.rng,
                            self.loop.schedule, self._sink)
        self.receivers: dict[int, UeReceiver] = {}
        self.senders: dict[int, Sender] = {}
        self.flows_on_ue: dict[int, list[int]] = {}
        self._deliveries: dict[int, list] = {}
        self._active: set[int] = set()
        # flow -> (deadline, tick) of its latest watchdog; present while a
        # check for the flow is on the heap
        self._watchdog: dict[int, tuple[int, int]] = {}

        for ue in cfg.ue_ids():
            recv = UeReceiver(ue, self._transmit_ack)
            self.receivers[ue] = recv
            self.link.register_ue(ue, cfg.queue_capacity_bytes,
                                  self._make_deliver(ue))
            self.flows_on_ue[ue] = []

        ue_ids = cfg.ue_ids()
        self.assist = NetAssist(cfg.assist, self.schedule, cfg.path,
                                ue_ids, self.link.probe_rtt)

        for spec in cfg.flows():
            ctl = make_controller(cfg.scheme, cfg.mtu, cfg.alpha,
                                  cfg.divide_pacing_by_beta, cfg.tg_horizon_us)
            snd = Sender(spec.flow_id, cfg.mtu, ctl,
                         self._make_transmit(spec.ue_id), self.loop.schedule)
            self.senders[spec.flow_id] = snd
            self.flows_on_ue[spec.ue_id].append(spec.flow_id)
            self._deliveries[spec.flow_id] = []

    # -- logging --------------------------------------------------------------

    def _log(self, t_us: int, kind: str, flow, seq: int, qdelay_us: int = -1) -> None:
        self.event_log.append((t_us, kind, flow, seq, qdelay_us))

    # -- wiring callbacks -------------------------------------------------------

    def _make_transmit(self, ue_id: int):
        sink = self._sink

        def transmit(pkt: Packet, now: int) -> None:
            if sink is not None:
                sink(now, "snd", pkt.flow_id, pkt.seq)
            self.link.send_downlink(pkt, now, ue_id)
        return transmit

    def _make_deliver(self, ue_id: int):
        sink = self._sink
        on_data = self.receivers[ue_id].on_data
        deliveries = self._deliveries

        def deliver(now: int, pkt: Packet) -> None:
            if sink is not None:
                sink(now, "dlv", pkt.flow_id, pkt.seq)
            first = on_data(pkt, now)
            deliveries[pkt.flow_id].append((now, pkt.size, first))
        return deliver

    def _transmit_ack(self, pkt: Packet, now: int) -> None:
        self.link.send_uplink(pkt, now, self._on_ack_arrival)

    # -- event handlers ---------------------------------------------------------

    def _on_ack_arrival(self, now: int, pkt: Packet) -> None:
        sender = self.senders.get(pkt.flow_id)
        if sender is None:
            return
        if self._sink is not None:
            self._sink(now, "ack", pkt.flow_id, pkt.cum_ack)
        sender.process_ack(pkt, now)
        if pkt.feedback is not None:
            self._handle_feedback(pkt.flow_id, pkt.feedback, now)
        sender.try_send(now)

    def _emit_feedback(self, now: int) -> None:
        msg = self.assist.emit(now)
        if msg is None:
            return
        if self.cfg.assist.mode == "oob":
            self.loop.schedule(now + self.cfg.path.oob_delay_us,
                               self._oob_arrive, (msg,))
        else:
            for ue in self.flows_on_ue:
                self.link.attach_ib(ue, msg)

    def _oob_arrive(self, now: int, msg: FeedbackMsg) -> None:
        """Hand one period's digest to every started flow, UE by UE."""
        for flows in self.flows_on_ue.values():
            for fid in flows:
                if fid not in self._active:
                    continue  # not started; must not react, let alone send
                self._handle_feedback(fid, msg, now)
                self.senders[fid].try_send(now)

    def _handle_feedback(self, flow_id: int, msg: FeedbackMsg, now: int) -> None:
        sender = self.senders[flow_id]
        ctl = sender.controller
        ctl.on_feedback(now, msg)
        self.feedback_log.append(
            (flow_id, msg.seq, msg.t_emitted, now, msg.bl_bw, msg.min_rtt))
        sender.apply_decision()
        if ctl.uses_watchdog:
            key = (now + WATCHDOG_PERIODS * self.cfg.assist.period_us,
                   self.loop.reserve())
            if flow_id not in self._watchdog:
                self.loop.schedule(key[0], self._watchdog_check,
                                   (flow_id, key), key[1])
            self._watchdog[flow_id] = key

    def _watchdog_check(self, now: int, flow_id: int, key: tuple[int, int]) -> None:
        latest = self._watchdog[flow_id]
        if latest != key:  # fresher feedback arrived: wait for its deadline
            self.loop.schedule(latest[0], self._watchdog_check,
                               (flow_id, latest), latest[1])
            return
        del self._watchdog[flow_id]
        sender = self.senders[flow_id]
        sender.controller.revert(now)
        sender.apply_decision()
        sender.try_send(now)

    def _start_flow(self, now: int, flow_id: int) -> None:
        self._active.add(flow_id)
        self.senders[flow_id].try_send(now)

    # -- run --------------------------------------------------------------------

    def run(self) -> RunResult:
        duration = self.cfg.duration_us
        period = self.cfg.assist.period_us
        t = period
        while t <= duration:
            self.loop.schedule(t, self._emit_feedback)
            t += period
        for spec in self.cfg.flows():
            self.loop.schedule(spec.start_us, self._start_flow, (spec.flow_id,))
        self.loop.run_until(duration)
        return self._collect()

    def _collect(self) -> RunResult:
        flows = []
        for spec in self.cfg.flows():
            snd = self.senders[spec.flow_id]
            ctl = snd.controller
            recv = self.receivers[spec.ue_id]
            flows.append(FlowStats(
                flow_id=spec.flow_id,
                ue_id=spec.ue_id,
                scheme=self.cfg.scheme,
                start_us=spec.start_us,
                sent_segments=snd.sent_segments,
                retransmits=snd.retransmits,
                timeouts=snd.timeouts,
                delivered_bytes=recv.delivered_bytes.get(spec.flow_id, 0),
                unique_bytes=recv.unique_bytes.get(spec.flow_id, 0),
                drops=self.link.drops_by_flow.get(spec.flow_id, 0),
                fb_count=ctl.fb_count,
                mode_log=list(ctl.mode_log),
                deliveries=self._deliveries[spec.flow_id],
            ))
        qdelay: list[int] = []
        queue_drops = 0
        for ue in self.cfg.ue_ids():
            q = self.link.queue_for(ue)
            qdelay.extend(q.qdelay_samples_us)
            queue_drops += q.drop_count
        if len(self.cfg.ue_ids()) > 1:
            qdelay.sort()
        return RunResult(
            scheme=self.cfg.scheme,
            trace=self.cfg.trace,
            duration_us=self.cfg.duration_us,
            seed=self.cfg.seed,
            flows=flows,
            qdelay_samples_us=qdelay,
            event_log=self.event_log,
            feedback_log=self.feedback_log,
            overhead_kbps=self.assist.overhead_kbps(self.cfg.duration_us),
            queue_drops=queue_drops,
            conservation_ok=self.link.conservation_ok(),
        )


def run_simulation(cfg: SimConfig) -> RunResult:
    return Simulation(cfg).run()
