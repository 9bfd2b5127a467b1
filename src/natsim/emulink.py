"""Emulated cellular path: base-station queue, downlink replay, uplink, probes.

The downlink is a per-UE droptail FIFO drained by the trace schedule: each
delivery opportunity transmits the head packet of one backlogged UE,
round-robin in registration order.  Unused opportunities are wasted, never
banked.  The backlog lists the UEs with a packet queued in ascending rank,
and one drain event is pending exactly while it is non-empty.
The uplink (acks) is an ideal pipe: fixed one-way delay plus per-packet
serialization at a configured depletion rate, no queuing.  Measurement
probes bypass the UE queues entirely and observe only fixed network delay.
The wiring fixes what each leg carries: ``send_downlink`` is reached only
through a sender's ``transmit``, with the data packets it builds, and
``send_uplink`` only as a receiver's ``transmit_ack``, with the ack it has
just marked, so neither checks a packet's kind.

Both legs in flight, server to BTS and UE to server, are a FIFO each,
like htsim's pipes: a packet sent onto a leg takes its heap key
``(arrival, tick)`` at send time.  FIFO order is exact because each leg's
delay is a constant of the link and loop time never decreases, so each
leg delivers in send order by construction.

Only the uplink's first entry is on the event heap; its arg is the ack
itself.  ``_ack_arrive`` pushes the next one before it hands its ack to
``on_ack(now, pkt)``, the one ack handler the link is built with, so the
heap pops every ack exactly where it would with one entry per ack in
flight.  The downlink's first entry is on the heap only while the backlog
is empty or the event log is on; ``_arrive`` then admits it to its UE queue
(the drop test and the enqueue) and pushes the next one under the same
rule.  While the backlog is non-empty and no log is kept, an arrival can
only enqueue or drop, and nothing reads a queue before the next service.
So no downlink entry goes on the heap: each ``_on_opportunity`` first
admits, in order, every entry keyed below its own ``(time, tick)``, with no
frame a packet, and a service that empties the backlog pushes the leg's
first entry.  No dequeue happens between two services, so every drop
decision and every enqueue time is the one the heap would have given.  The
entries that arrive at or before the end of the run but after its last
service are admitted by ``admit_until``.  With the log on, every arrival goes through
the heap, so each ``enq`` or ``drop`` row is written at its own time.

The link sees every packet, so it writes every per-packet event-log row
through its one sink (``None`` when no log is kept): ``snd`` on send,
``enq`` or ``drop`` at the UE queue, ``deq`` at service, ``airdrop`` or
``dlv`` just before the receiver's ``deliver(pkt, now)``, and ``ack``.
A row is packed as it happens into 40 bytes, five int64s: the time, the
kind's index in ``EVENT_KINDS``, the flow, the seq (the cumulative ack on
an ``ack`` row) and the queuing delay, ``-1`` on every row but ``deq``.
The sink takes the packed bytes, so a row costs no Python frame.  It is
the engine's row buffer, which the engine moves to a temporary file, the
spool, between slices of the run; the spool keeps the rows in this format.

``BtsLink`` reads its ``PathConfig`` once, at construction: the downlink
delay, the loss probability, the probe jitter and the ack delay, the uplink
one-way delay plus the serialization of one ``ACK_SIZE`` ack.  Every data
packet and every ack crosses the link, so neither computes a delay per
packet.  It binds its heap handlers (``_arrive``, ``_on_opportunity``,
``_ack_arrive``), ``schedule.instant`` and ``on_ack`` once too, as instance
attributes, so a push reuses one object and builds no bound method.

All times are integer microseconds.
"""

from __future__ import annotations

import bisect
import enum
import random
import struct
from array import array
from collections import Counter, deque
from dataclasses import dataclass, field
from functools import partial
from operator import attrgetter
from typing import TYPE_CHECKING, Callable

from .trace import Schedule

if TYPE_CHECKING:
    from .engine import EventLoop


class LinkError(ValueError):
    """Raised for invalid link operations and broken queue byte identities."""


class PacketKind(enum.Enum):
    DATA = "data"
    ACK = "ack"


DATA = PacketKind.DATA
ACK = PacketKind.ACK


UNSET = -1
ACK_SIZE = 64   # bytes the uplink serializes for every ack

# event-log row kinds; a row stores the kind's index
EVENT_KINDS = ("snd", "enq", "drop", "deq", "airdrop", "dlv", "ack")
_SND, _ENQ, _DROP, _DEQ, _AIRDROP, _DLV, _ACK = range(len(EVENT_KINDS))
# one row, (t_us, kind, flow, seq, qdelay_us), as five int64s
_ROW = struct.Struct("5q").pack


@dataclass(slots=True)
class Packet:
    """A simulated packet; ``t_enqueued`` is stamped by the UE queue.

    ``size`` is the data payload.  An ack is its data packet turned around,
    so it keeps that size; the uplink charges every ack ``ACK_SIZE``.
    """

    flow_id: int
    seq: int
    size: int
    kind: PacketKind
    t_enqueued: int = UNSET
    cum_ack: int = UNSET          # acks only
    beta: int = 0                 # acks only: active-flow count at the UE
    feedback: object = None       # in-band feedback digest riding this packet


@dataclass
class PathConfig:
    """Fixed path parameters around the bottleneck queue.

    The defaults give an intrinsic (unloaded) end-to-end round trip of 10 ms
    at the 12 Mbit/s reference rate: 2.5 ms downlink propagation + 1 ms MTU
    service at the head of an empty queue + 6.457 ms uplink propagation +
    ~43 us ack serialization.

    Each field is a config key ``path.<name>``; its metadata bounds it as
    ``SimConfig``'s fields are bounded.
    """

    # server -> BTS and UE -> server one-way network delays
    down_owd_us: int = field(default=2500, metadata={"sign": "non-negative"})
    up_owd_us: int = field(default=6457, metadata={"sign": "non-negative"})
    # ack depletion rate; 0 = ideal, else at least 1 bit/s (a cross-key check)
    uplink_rate_bps: float = field(default=12_000_000.0, metadata={"sign": "non-negative"})
    # measurement entity -> server
    oob_delay_us: int = field(default=2000, metadata={"sign": "non-negative"})
    # post-dequeue air-interface loss probability
    loss_prob: float = field(default=0.0, metadata={"sign": "non-negative", "max": 1})
    probe_jitter_us: int = field(default=0, metadata={"sign": "non-negative"})

    def serialization_us(self, size_bytes: int) -> int:
        if self.uplink_rate_bps <= 0:
            return 0
        return int(round(size_bytes * 8 * 1e6 / self.uplink_rate_bps))


@dataclass
class UeQueue:
    """The link's record of one UE: a droptail FIFO sized in bytes, its
    registration ``rank``, its receiver's ``deliver`` and the in-band digest
    ``staged`` for its next dequeue (``None`` when there is none).

    A packet is accepted only when its full size fits.  A dropped packet
    never enters the queue, so it sits outside the byte identity (enqueued =
    dequeued + occupancy), and the link counts it per flow; ``conserved``
    checks that identity once, at the end of the run.  Each dequeue appends
    the packet's queuing delay to ``qdelay_samples_us``, an ``array("H")``,
    2 bytes a sample, until a delay passes 65,535 us.  That sample widens
    the array, once, to ``wide_typecode``, the run's time typecode: 4 bytes
    a sample for a run of at most 2**31 - 1 us, else 8.
    """

    ue_id: int
    capacity_bytes: int
    rank: int = 0
    deliver: Callable[[Packet, int], None] | None = None
    staged: object = None
    fifo: deque = field(default_factory=deque)
    occupancy: int = 0
    enqueued_bytes: int = 0
    dequeued_bytes: int = 0
    qdelay_samples_us: array = field(default_factory=partial(array, "H"))
    wide_typecode: str = "q"

    def offer(self, pkt: Packet, now: int) -> bool:
        """Enqueue pkt, or drop it when it does not fit whole."""
        if self.occupancy + pkt.size > self.capacity_bytes:
            return False
        pkt.t_enqueued = now
        self.fifo.append(pkt)
        self.occupancy += pkt.size
        self.enqueued_bytes += pkt.size
        return True

    def pop(self, now: int) -> Packet:
        pkt = self.fifo.popleft()
        self.occupancy -= pkt.size
        self.dequeued_bytes += pkt.size
        try:
            self.qdelay_samples_us.append(now - pkt.t_enqueued)
        except OverflowError:   # the first delay past 65,535 us
            self.qdelay_samples_us = array(self.wide_typecode, self.qdelay_samples_us)
            self.qdelay_samples_us.append(now - pkt.t_enqueued)
        return pkt

    def conserved(self) -> bool:
        """enqueued = dequeued + occupancy, 0 <= occupancy <= capacity, and
        occupancy = the bytes in the FIFO (a list: one call, however long)."""
        return (self.enqueued_bytes == self.dequeued_bytes + self.occupancy
                and 0 <= self.occupancy <= self.capacity_bytes
                and self.occupancy == sum([p.size for p in self.fifo]))


_RANK = attrgetter("rank")


class BtsLink:
    """Bottleneck link: trace-driven drain over per-UE droptail queues."""

    def __init__(
        self,
        schedule: Schedule,
        path: PathConfig,
        rng: random.Random,
        loop: EventLoop,
        log: Callable[[bytes], None] | None = None,
        on_ack: Callable[[int, Packet], None] | None = None,
    ) -> None:
        self.schedule = schedule
        self._instant = schedule.instant
        self._down_owd_us = path.down_owd_us
        self._ack_delay_us = path.up_owd_us + path.serialization_us(ACK_SIZE)
        self._loss_prob = path.loss_prob
        self._probe_jitter_us = path.probe_jitter_us
        self.rng = rng
        self._reserve = loop.reserve
        self._push = loop.push
        # each handler bound once: the instance attribute shadows the method
        self._arrive = self._arrive
        self._on_opportunity = self._on_opportunity
        self._ack_arrive = self._ack_arrive
        # takes every ack the uplink delivers, as on_ack(now, pkt); a link
        # built without one carries no ack
        self._on_ack = on_ack
        # each leg in flight: a FIFO of (arrival_us, tick, fn, arg) entries;
        # the uplink's first is on the event heap, the downlink's only while
        # the backlog is empty or the log is on (else services admit them)
        self._down: deque = deque()
        self._up: deque = deque()
        self._log = log   # takes one packed row; None when the run records no log
        self.queues: dict[int, UeQueue] = {}
        self._backlog: list[UeQueue] = []   # queues holding a packet, by rank
        self._rr_next = 0          # lowest rank the next service may pick
        self._next_opp_index = 0   # first opportunity not yet served
        self.air_drops = 0
        self.drops_by_flow: dict[int, int] = {}

    # -- wiring -----------------------------------------------------------

    def register_ue(
        self,
        ue_id: int,
        capacity_bytes: int,
        deliver: Callable[[Packet, int], None],
        typecode: str = "q",
    ) -> UeQueue:
        """A new queue for ``ue_id``, whose delay samples widen from 2 bytes
        to an ``array(typecode)`` at the first that does not fit."""
        if ue_id in self.queues:
            raise LinkError(f"UE {ue_id!r} already registered")
        q = UeQueue(ue_id, capacity_bytes, len(self.queues), deliver,
                    wide_typecode=typecode)
        self.queues[ue_id] = q
        return q

    def queue_for(self, ue_id: int) -> UeQueue:
        try:
            return self.queues[ue_id]
        except KeyError:
            raise LinkError(f"unknown UE {ue_id!r}") from None

    # -- downlink ---------------------------------------------------------

    def send_downlink(self, q: UeQueue, pkt: Packet, now: int) -> None:
        """Launch a data packet toward the UE queue ``q`` (arrives after the
        downlink one-way delay).  Probes never take this path."""
        if self._log is not None:
            self._log(_ROW(now, _SND, pkt.flow_id, pkt.seq, -1))
        entry = (now + self._down_owd_us, self._reserve(), self._arrive, (pkt, q))
        if not self._down and (self._log is not None or not self._backlog):
            self._push(entry)
        self._down.append(entry)

    def _arrive(self, now: int, arg: tuple[Packet, UeQueue]) -> None:
        """Admit the downlink's first entry, ``arg = (pkt, q)``, to its UE
        queue, then push the next one onto the heap while the backlog is
        empty or the log is on."""
        pkt, q = arg
        down = self._down
        down.popleft()
        backlog = self._backlog
        if q.offer(pkt, now):
            if self._log is not None:
                self._log(_ROW(now, _ENQ, pkt.flow_id, pkt.seq, -1))
            if len(q.fifo) == 1:
                bisect.insort(backlog, q, key=_RANK)
                if len(backlog) == 1:
                    # the drain starts: the first unserved opportunity at or
                    # after now
                    idx = self._next_opp_index
                    t_us = self._instant(idx)
                    if t_us < now:  # the link idled past it: search from now
                        idx = self.schedule.index_at_or_after(now)
                        t_us = self._instant(idx)
                    tick = self._reserve()
                    self._push((t_us, tick, self._on_opportunity, (idx, tick)))
        else:
            self.drops_by_flow[pkt.flow_id] = self.drops_by_flow.get(pkt.flow_id, 0) + 1
            if self._log is not None:
                self._log(_ROW(now, _DROP, pkt.flow_id, pkt.seq, -1))
        if down and (self._log is not None or not backlog):
            self._push(down[0])

    def admit_until(self, t_end_us: int) -> None:
        """Admit the downlink entries that arrive at or before ``t_end_us``
        and are still on the leg: with no log, those that land after the
        run's last service.  The run calls it once, after its last event."""
        down = self._down
        while down and down[0][0] <= t_end_us:
            t_us, _, _, arg = down[0]
            self._arrive(t_us, arg)

    def _on_opportunity(self, now: int, arg: tuple[int, int]) -> None:
        """Serve one packet from the next backlogged UE (round-robin), after
        admitting, with no log, the downlink entries keyed below this one;
        ``arg = (idx, tick)``, the opportunity's index and this event's tick."""
        idx, tick = arg
        backlog = self._backlog
        down = self._down
        log = self._log
        if log is None and down:
            # _arrive's admission inline: no frame a packet, and no service
            # in between, so the drop test sees the occupancy _arrive would
            key = (now, tick)
            while down and down[0] < key:
                t_us, _, _, (pkt, q) = down.popleft()
                size = pkt.size
                if q.occupancy + size > q.capacity_bytes:
                    self.drops_by_flow[pkt.flow_id] = (
                        self.drops_by_flow.get(pkt.flow_id, 0) + 1)
                else:
                    pkt.t_enqueued = t_us
                    q.fifo.append(pkt)
                    q.occupancy += size
                    q.enqueued_bytes += size
                    if len(q.fifo) == 1:
                        bisect.insort(backlog, q, key=_RANK)
        # the first at or after the round-robin position, else the lowest
        i = bisect.bisect_left(backlog, self._rr_next, key=_RANK) % len(backlog)
        q = backlog[i]
        self._rr_next = q.rank + 1
        self._next_opp_index = idx + 1
        pkt = q.pop(now)
        if not q.fifo:
            del backlog[i]
            if not backlog and down and log is None:
                self._push(down[0])
        if log is not None:
            log(_ROW(now, _DEQ, pkt.flow_id, pkt.seq, now - pkt.t_enqueued))
        if q.staged is not None:
            pkt.feedback = q.staged
            q.staged = None
        if self._loss_prob > 0 and self.rng.random() < self._loss_prob:
            self.air_drops += 1
            self.drops_by_flow[pkt.flow_id] = self.drops_by_flow.get(pkt.flow_id, 0) + 1
            if log is not None:
                log(_ROW(now, _AIRDROP, pkt.flow_id, pkt.seq, -1))
        else:  # zero residual radio-leg delay
            if log is not None:
                log(_ROW(now, _DLV, pkt.flow_id, pkt.seq, -1))
            q.deliver(pkt, now)
        if backlog:  # the next opportunity, never before now
            idx += 1
            tick = self._reserve()
            self._push((self._instant(idx), tick, self._on_opportunity, (idx, tick)))

    # -- in-band feedback -------------------------------------------------

    def attach_ib(self, ue_id: int, msg: object) -> None:
        """Stage a feedback digest on the next packet dequeued for this UE.

        A newer digest replaces an unattached older one (stale feedback is
        useless by the time a later one exists).
        """
        self.queue_for(ue_id).staged = msg

    # -- uplink -----------------------------------------------------------

    def send_uplink(self, pkt: Packet, now: int) -> None:
        """Carry an ack (possibly with piggybacked feedback) to the server,
        where the link hands it to ``on_ack``."""
        entry = (now + self._ack_delay_us, self._reserve(), self._ack_arrive, pkt)
        if not self._up:
            self._push(entry)
        self._up.append(entry)

    def _ack_arrive(self, now: int, pkt: Packet) -> None:
        """Hand the uplink's first entry, the ack ``pkt``, to
        ``on_ack(now, pkt)``, after pushing the next one onto the heap."""
        up = self._up
        up.popleft()
        if up:
            self._push(up[0])
        if self._log is not None:
            self._log(_ROW(now, _ACK, pkt.flow_id, pkt.cum_ack, -1))
        self._on_ack(now, pkt)

    # -- probes -----------------------------------------------------------

    def probe_rtt(self, now: int) -> int:
        """Round-trip network delay seen by a priority probe at ``now``.

        Probes bypass the UE queues, so the sample excludes all queuing.
        """
        base = 2 * self._down_owd_us
        j = self._probe_jitter_us
        if j > 0:
            # Keyed by probe time so samples are reproducible regardless of
            # query order and independent of the loss RNG stream.
            base += random.Random(1_000_003 * now + 12345).randint(-j, j)
        return max(0, base)

    # -- accounting -------------------------------------------------------

    @property
    def served_opportunities(self) -> int:
        """Opportunities that served a packet: each service pops one, and
        each pop keeps one delay sample."""
        return sum([len(q.qdelay_samples_us) for q in self.queues.values()])

    def idle_opportunities(self, horizon_us: int) -> int:
        elapsed = self.schedule.index_at_or_after(horizon_us + 1)
        return max(0, elapsed - self.served_opportunities)

    def held_by_flow(self, t_end_us: int) -> Counter:
        """Data packets the link still holds at ``t_end_us``, the end of the
        run, per flow: queued at a UE or on the downlink leg.  Each one left
        on the leg must arrive after ``t_end_us``; ``LinkError`` names the
        flow of one that was never admitted."""
        held = Counter([p.flow_id for q in self.queues.values() for p in q.fifo])
        for t_us, _, _, (pkt, _) in self._down:
            if t_us <= t_end_us:
                raise LinkError(f"flow {pkt.flow_id}: a packet that arrived at "
                                f"{t_us} us was never admitted")
            held[pkt.flow_id] += 1
        return held

    def conservation_ok(self) -> bool:
        """Every queue's byte identity holds (``UeQueue.conserved``)."""
        return all([q.conserved() for q in self.queues.values()])
