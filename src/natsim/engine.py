"""Deterministic event-driven simulation core and run metrics.

One run wires together: bulk senders (one per flow), the trace-driven
bottleneck link with per-UE droptail queues, per-UE receivers, and the
network-side measurement entity whose one feedback digest per period the
engine hands to every UE.  Everything advances on a single
integer-microsecond event heap.  Ties break by the point at which the
causing event was handled: each event carries a tick taken from one
counter, either when it is scheduled or reserved for a push made later.
Identical configurations therefore replay identically.

The engine is the control plane: it starts flows, emits and applies the
feedback digests and runs the watchdogs.  Packets move between senders,
link and receivers, which call each other directly: ``transmit`` is
``send_downlink`` bound to the UE's queue, and a data packet becomes its
own ack.  The link writes every per-packet event-log row through its one
sink, ``events.frombytes`` when ``log.events`` is on, else ``None``: each
row lands in the ``array('q')`` ``events`` as five int64s, 40 bytes, with
no Python frame (see ``emulink``).
``_collect`` derives each flow's byte counts from its receiver's
deliveries, and raises ``LinkError`` naming the UE whose queue's byte
identity broke, or the flow whose packets do not add up: each flow's sent
and retransmitted packets are delivered, dropped (at the queue or in the
air), queued, or still on the downlink leg, arriving after the run.  The
run first has the link admit the arrivals due by its end that no service
admitted (``BtsLink.admit_until``).

The heap holds only work that is next in line: the next period's feedback
emit, the first ack on the uplink leg, the first packet on the downlink
leg while the link's backlog is empty or the event log is on (otherwise
each service admits the packets due before it), the link's one drain
event, per-flow timers, one watchdog check per feedback stream,
out-of-band arrivals and flow starts.  Its depth follows the flows, not
the periods of the run or the packets in flight.  Reserved ticks keep every
``(time, tick)`` key what it would be with one entry per pending event: a
packet takes its tick when it is sent onto a link leg (see ``emulink``); a
watchdog check takes its tick when the feedback that arms it is applied.
The one pending emit is keyed ``(time, EMIT_TICK)``, below every counter
tick, so it runs first at its instant, and it pushes the next one.

Watchdogs are kept per feedback stream: the flows that receive one digest
at one instant, which is every started flow for out-of-band feedback and a
single flow for in-band.  Applying a digest reserves one tick per flow, in
the order the flows receive it, and the stream records the deadline and
the ``(tick, flow)`` keys of its latest arrival.  A stream keeps at most one
check on the heap.  A check that finds a fresher arrival moves itself to
that arrival's first key; one that finds its own arrival still the latest
reverts one flow and moves to the next flow's key.  Every revert therefore
runs exactly where it would if each feedback had pushed one check per flow.

One path applies a digest: ``_handle_feedback`` logs the arrival, walks
the flows of one stream in the order they receive it, then arms the
stream's watchdog.  Out of band, the stream is the list of the started
senders in UE rank, then flow id order; ``_start_flow`` inserts each sender
as it starts, so the list costs no set-up work and an arrival touches no
flow that has not started.  In band, it is the one flow whose ack carried
the digest, a stream built once at wiring.  The feedback log keeps one
row per arrival, not one per flow: ``FEEDBACK_ROW`` packs it into the
``array('q')`` ``feedback`` in 40 bytes, and ``feedback_fids`` keeps a
reference to the stream's flow ids, a tuple shared by every arrival until
a start changes the stream (out of band) or for the whole run (in band).
``RunResult.feedback_log`` decodes the two into one tuple per flow.  Each
flow counts the digest, and its controller recomputes the decision only
when the digest can move it; with one digest per period for the whole
cell, most applications move nothing.  The sender reads the
decision from its controller, so there is nothing to hand over.
``try_send`` still runs for every flow whose window is open, even one
whose decision did not move: a flow whose pacer releases at the arrival
instant sends from the fan-out, ahead of its own pacer event, and
skipping the call would reorder those sends.  Only a closed window, the
test ``try_send`` makes first, lets the fan-out skip the call.

Randomness: one generator seeded from the config drives air-interface loss
(and nothing else); synthetic walk traces derive their own generator from
the same seed at construction time.
"""

from __future__ import annotations

import itertools
import math
import random
import statistics
import struct
from array import array
from bisect import insort
from dataclasses import dataclass, field
from functools import partial
from heapq import heappop, heappush
from typing import Callable, Sequence

from .cc import make_controller
from .config import SimConfig, resolve_schedule
from .emulink import EVENT_KINDS, BtsLink, LinkError, Packet
from .netassist import FeedbackMsg, NetAssist
from .transport import Sender, UeReceiver

WATCHDOG_PERIODS = 3   # feedback silence tolerated before reverting
OOB_STREAM = "oob"     # key of the out-of-band watchdog stream; in band, the flow id
EMIT_TICK = -1         # tie-break of every feedback emit: first at its instant
_DEQ = EVENT_KINDS.index("deq")
# one feedback arrival: t_arrived, seq, t_emitted and min_rtt as int64, then
# bl_bw as a double, so the float reads back exactly; 40 bytes
FEEDBACK_ROW = struct.Struct("4qd")


class EventLoop:
    """Minimal time-ordered callback heap (integer microseconds)."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Callable, tuple]] = []
        self._tick = itertools.count()
        # reserve() takes the next tie-break tick for an event pushed later,
        # push((t_us, tick, fn, args)) pushes it
        self.reserve: Callable[[], int] = self._tick.__next__
        self.push: Callable[[tuple], None] = partial(heappush, self._heap)
        self.processed = 0

    def schedule(self, t_us: int, fn: Callable, args: tuple = ()) -> None:
        """Push fn(t_us, *args) at the next tie-break tick."""
        heappush(self._heap, (t_us, next(self._tick), fn, args))

    def run_until(self, t_end_us: int) -> None:
        heap = self._heap
        n = 0
        try:
            while heap and heap[0][0] <= t_end_us:
                t, _, fn, args = heappop(heap)
                n += 1
                fn(t, *args)
        finally:
            self.processed += n


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
    # arrival time of each data packet (one MTU each); ~t for a duplicate
    deliveries: array = field(default_factory=partial(array, "q"))


@dataclass
class RunResult:
    scheme: str
    trace: str
    duration_us: int
    seed: int
    mtu: int
    flows: list[FlowStats]
    qdelay_samples_us: array
    # the event log, five int64s a row: t_us, kind (an index into
    # EVENT_KINDS), flow, seq and qdelay_us (-1 on every row but deq)
    events: array
    # the feedback log, one FEEDBACK_ROW per digest arrival, and for each
    # arrival the ids of the flows that received it, in order (a shared tuple)
    feedback: array
    feedback_fids: list[tuple]
    overhead_kbps: float
    queue_drops: int

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
        """First-delivery rate for one flow over [t0, t1] (Mbit/s).

        A duplicate is stored as a negative time, so no window that starts
        at or after 0 counts one.
        """
        if not 0 <= flow_id < len(self.flows):
            raise ValueError(f"no flow {flow_id}: flows are 0..{len(self.flows) - 1}")
        if t1_us is None:
            t1_us = self.duration_us
        if t0_us < 0:
            raise ValueError("window must start at or after 0")
        if t1_us <= t0_us:
            raise ValueError("window must have positive length")
        n = sum(1 for t in self.flows[flow_id].deliveries if t0_us <= t <= t1_us)
        return n * self.mtu * 8 / (t1_us - t0_us)

    @property
    def event_log(self) -> list[tuple]:
        """The event log as ``(t_us, kind, flow, seq, qdelay_us)`` tuples,
        ``kind`` a name from ``EVENT_KINDS``; decoded anew on every read."""
        kinds = EVENT_KINDS
        it = iter(self.events)
        return [(t, kinds[k], fl, seq, q)
                for t, k, fl, seq, q in zip(it, it, it, it, it)]

    @property
    def feedback_log(self) -> list[tuple]:
        """One ``(flow, seq, t_emitted, t_arrived, bl_bw, min_rtt)`` tuple per
        flow per applied digest, in the order applied; decoded anew on every
        read."""
        return [(fid, seq, t_emit, t_arr, bl_bw, min_rtt)
                for (t_arr, seq, t_emit, min_rtt, bl_bw), fids
                in zip(FEEDBACK_ROW.iter_unpack(self.feedback), self.feedback_fids)
                for fid in fids]

    def departures(self) -> list[tuple]:
        """Bottleneck departure log: (t_us, flow, seq, qdelay_us) rows.

        Every run sends at least one packet, so an empty event log means the
        run did not record it (``log.events`` off).
        """
        if not self.events:
            raise ValueError("the run did not record its event log; "
                             "set log.events to read departures")
        it = iter(self.events)
        return [(t, fl, seq, q) for t, k, fl, seq, q in zip(it, it, it, it, it)
                if k == _DEQ]

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
        self.events = array("q")
        self.feedback = array("q")
        self.feedback_fids: list[tuple] = []

        # the link packs every event-log row straight into events when it is on
        self.link = BtsLink(self.schedule, cfg.path, self.rng, self.loop,
                            self.events.frombytes if cfg.log_events else None)
        self.receivers: dict[int, UeReceiver] = {}
        self.senders: dict[int, Sender] = {}
        # (UE rank, flow, sender) of every started flow, in fan-out order, and
        # their flow ids; None after a start until the next arrival rebuilds it
        self._started: list[tuple[int, int, Sender]] = []
        self._started_fids: tuple[int, ...] | None = ()
        # in band, flow -> its stream, ((0, flow, sender),), and its ids, (flow,)
        self._solo: dict[int, tuple[tuple, tuple[int]]] = {}
        # stream -> (deadline, [(tick, flow), ...]) of its latest arrival;
        # present while a check for the stream is on the heap
        self._watchdog: dict[object, tuple[int, list[tuple[int, int]]]] = {}

        for ue in cfg.ue_ids():
            self.receivers[ue] = UeReceiver(ue, self._transmit_ack)
            self.link.register_ue(ue, cfg.queue_capacity_bytes,
                                  self._make_deliver(ue))

        self.assist = NetAssist(cfg.assist, self.schedule, cfg.path,
                                cfg.ue_ids(), self.link.probe_rtt)

        for spec in cfg.flows():
            ctl = make_controller(cfg.scheme, cfg.mtu, cfg.alpha,
                                  cfg.divide_pacing_by_beta, cfg.tg_horizon_us)
            snd = Sender(spec.flow_id, cfg.mtu, ctl,
                         self._make_transmit(spec.ue_id), self.loop.schedule)
            self.senders[spec.flow_id] = snd
            if cfg.assist.mode == "ib":
                self._solo[spec.flow_id] = (((0, spec.flow_id, snd),), (spec.flow_id,))

    # -- logging --------------------------------------------------------------

    def _log(self, row: bytes) -> None:
        """Append one packed row.  The link's sink is ``events.frombytes``
        itself, so no row passes here; ``perfbench/spans.py`` names it."""
        self.events.frombytes(row)

    # -- wiring callbacks -------------------------------------------------------

    def _make_transmit(self, ue_id: int):
        return partial(self.link.send_downlink, self.link.queue_for(ue_id))

    def _make_deliver(self, ue_id: int):
        return self.receivers[ue_id].on_data

    def _transmit_ack(self, pkt: Packet, now: int) -> None:
        self.link.send_uplink(pkt, now, self._on_ack_arrival)

    # -- event handlers ---------------------------------------------------------

    def _on_ack_arrival(self, now: int, pkt: Packet) -> None:
        sender = self.senders[pkt.flow_id]
        sender.process_ack(pkt, now)
        if pkt.feedback is None:
            sender.try_send(now)
        else:  # an in-band digest is a stream of one flow; no rank is read
            flows, fids = self._solo[pkt.flow_id]
            self._handle_feedback(now, pkt.feedback, pkt.flow_id, flows, fids)

    def _emit_feedback(self, now: int) -> None:
        nxt = now + self.cfg.assist.period_us
        if nxt <= self.cfg.duration_us:  # chain the next period's emit
            self.loop.push((nxt, EMIT_TICK, self._emit_feedback, ()))
        msg = self.assist.emit(now)
        if msg is None:
            return
        if self.cfg.assist.mode == "oob":
            self.loop.schedule(now + self.cfg.path.oob_delay_us,
                               self._oob_arrive, (msg,))
        else:
            for ue in self.receivers:
                self.link.attach_ib(ue, msg)

    def _oob_arrive(self, now: int, msg: FeedbackMsg) -> None:
        fids = self._started_fids
        if fids is None:  # a flow started since the last arrival
            fids = self._started_fids = tuple([fid for _, fid, _ in self._started])
        self._handle_feedback(now, msg, OOB_STREAM, self._started, fids)

    def _handle_feedback(self, now: int, msg: FeedbackMsg, stream,
                         flows: Sequence[tuple[int, int, Sender]],
                         fids: tuple[int, ...]) -> None:
        """Apply one digest to ``flows``, ``(rank, flow, sender)`` entries in
        the order they receive it, whose flow ids are ``fids``; log it as one
        row; then make this arrival the stream's latest: push a check unless
        one is already on the heap (it moves itself when it fires)."""
        if not fids:  # no flow has started: nothing receives the digest
            return
        self.feedback.frombytes(FEEDBACK_ROW.pack(
            now, msg.seq, msg.t_emitted, msg.min_rtt, msg.bl_bw))
        self.feedback_fids.append(fids)
        keys: list[tuple[int, int]] = []
        reserve = self.loop.reserve
        for _, fid, sender in flows:
            ctl = sender.controller
            ctl.on_feedback(now, msg)
            if ctl.uses_watchdog:
                keys.append((reserve(), fid))
            # try_send's own window test: a closed window sends nothing
            if sender.next_seq - sender.cum_acked + sender.mtu <= ctl.cwnd:
                sender.try_send(now)
        if not keys:
            return
        deadline = now + WATCHDOG_PERIODS * self.cfg.assist.period_us
        if stream not in self._watchdog:
            self.loop.push((deadline, keys[0][0], self._watchdog_check,
                            (stream, keys, 0)))
        self._watchdog[stream] = (deadline, keys)

    def _watchdog_check(self, now: int, stream, keys: list[tuple[int, int]],
                        i: int) -> None:
        deadline, latest = self._watchdog[stream]
        if latest is not keys:  # fresher feedback arrived: wait for its deadline
            self.loop.push((deadline, latest[0][0], self._watchdog_check,
                            (stream, latest, 0)))
            return
        sender = self.senders[keys[i][1]]
        sender.controller.revert(now)
        sender.try_send(now)
        i += 1
        if i < len(keys):  # the next flow reverts at its own reserved tick
            self.loop.push((now, keys[i][0], self._watchdog_check,
                            (stream, keys, i)))
        else:
            del self._watchdog[stream]

    def _start_flow(self, now: int, flow_id: int, ue_id: int) -> None:
        sender = self.senders[flow_id]
        insort(self._started, (self.link.queues[ue_id].rank, flow_id, sender))
        self._started_fids = None
        sender.try_send(now)

    # -- run --------------------------------------------------------------------

    def run(self) -> RunResult:
        duration = self.cfg.duration_us
        period = self.cfg.assist.period_us
        if period <= duration:  # each emit pushes the next one
            self.loop.push((period, EMIT_TICK, self._emit_feedback, ()))
        for spec in self.cfg.flows():
            self.loop.schedule(spec.start_us, self._start_flow,
                               (spec.flow_id, spec.ue_id))
        self.loop.run_until(duration)
        self.link.admit_until(duration)
        return self._collect()

    def _collect(self) -> RunResult:
        for q in self.link.queues.values():
            if not q.conserved():
                raise LinkError(f"queue byte identity broken at UE {q.ue_id}")
        mtu = self.cfg.mtu
        held = self.link.held_by_flow(self.cfg.duration_us)
        flows = []
        for spec in self.cfg.flows():
            snd = self.senders[spec.flow_id]
            ctl = snd.controller
            deliveries = self.receivers[spec.ue_id].deliveries[spec.flow_id]
            drops = self.link.drops_by_flow.get(spec.flow_id, 0)
            if (snd.sent_segments + snd.retransmits
                    != len(deliveries) + drops + held[spec.flow_id]):
                raise LinkError(f"packet count broken for flow {spec.flow_id}")
            flows.append(FlowStats(
                flow_id=spec.flow_id,
                ue_id=spec.ue_id,
                scheme=self.cfg.scheme,
                start_us=spec.start_us,
                sent_segments=snd.sent_segments,
                retransmits=snd.retransmits,
                timeouts=snd.timeouts,
                delivered_bytes=len(deliveries) * mtu,
                # a list, not a generator: one call, however many entries
                unique_bytes=sum([t >= 0 for t in deliveries]) * mtu,
                drops=drops,
                fb_count=ctl.fb_count,
                mode_log=list(ctl.mode_log),
                deliveries=deliveries,
            ))
        queues = list(self.link.queues.values())
        queue_drops = sum(q.drop_count for q in queues)
        if len(queues) == 1:  # the one queue's samples, as they are
            qdelay = queues[0].qdelay_samples_us
        else:  # pooled in ascending order
            qdelay = array("q", sorted(itertools.chain.from_iterable(
                q.qdelay_samples_us for q in queues)))
        return RunResult(
            scheme=self.cfg.scheme,
            trace=self.cfg.trace,
            duration_us=self.cfg.duration_us,
            seed=self.cfg.seed,
            mtu=self.cfg.mtu,
            flows=flows,
            qdelay_samples_us=qdelay,
            events=self.events,
            feedback=self.feedback,
            feedback_fids=self.feedback_fids,
            overhead_kbps=self.assist.overhead_kbps(self.cfg.duration_us),
            queue_drops=queue_drops,
        )


def run_simulation(cfg: SimConfig) -> RunResult:
    return Simulation(cfg).run()
