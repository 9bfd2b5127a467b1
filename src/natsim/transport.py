"""Reliable byte-stream transport: paced sender and cumulative-ack receiver.

The sender models a bulk (always-backlogged) flow with MTU-sized segments:

* window gating on bytes in flight plus token-style pacing when the
  controller supplies a rate;
* duplicate-ack fast retransmit with NewReno-style partial-ack recovery
  (one window reduction per loss episode);
* retransmission timeout with exponential backoff, restarted whenever an
  ack advances the window; every deadline is set through ``_arm_rto``,
  which keeps at most one live event at or before it (an event it
  superseded finds itself stale when it fires and does nothing);
* RTT estimation from acks of segments never retransmitted (srtt/rttvar
  with 1/8 and 1/4 gains).  Every segment is one MTU, so the record of an
  outstanding segment is only its send time, cleared when it is resent.

The receiver keeps a per-flow cumulative/out-of-order reassembly map,
turns every data packet into its ack at once, and reports how many flows
were recently active so senders can share capacity fairly.  It decides
whether a payload is new, so it keeps each flow's deliveries, the one
record of what arrived, from which a run derives its byte counts: one
``array('q')`` entry per arriving data packet, its arrival time for new
payload and ``~t`` (that is, -t-1, always negative) for a duplicate.
Every segment is one MTU, so no size is stored.  A segment that
arrives in order while nothing is buffered advances the cumulative point
directly, without passing through the reassembly map.  The sender
keeps no copy of the congestion decision: each send reads the window and
the pacing gap from its controller, which computes the gap when the
pacing rate changes, not per segment.

An ack is its data packet turned around: the receiver sets its kind,
cumulative ack and beta and leaves ``size`` at the payload, which nothing
reads, since the uplink charges every ack ``emulink.ACK_SIZE``.  It sends
the ack on ``transmit_ack(pkt, now)``, which a run binds at wiring to the
link's ``send_uplink``, so an ack passes through no engine frame on its way
up.  The sender binds its own timer handlers, ``_on_pacer`` and
``_on_rto_event``, once at construction, so scheduling one builds no bound
method.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from functools import partial
from typing import Callable

from .cc import LOSS_DUPACK, LOSS_TIMEOUT, Controller
from .emulink import ACK, DATA, Packet

DUPACK_THRESHOLD = 3
RTO_MIN_US = 200_000
RTO_MAX_US = 60_000_000
SRTT_GAIN = 1 / 8
RTTVAR_GAIN = 1 / 4
# A flow counts toward the sharing denominator if it delivered data
# within this window.
ACTIVITY_WINDOW_US = 1_000_000


class Sender:
    """One bulk flow: segment tracking, pacing, recovery, RTO."""

    def __init__(
        self,
        flow_id: int,
        mtu: int,
        controller: Controller,
        transmit: Callable[[Packet, int], None],
        # EventLoop.schedule: schedule_event(t_us, fn) runs fn(t_us, None)
        schedule_event: Callable[[int, Callable[[int, None], None]], None],
    ) -> None:
        self.flow_id = flow_id
        self.mtu = mtu
        self.controller = controller
        self.transmit = transmit
        self.schedule_event = schedule_event
        # each timer handler bound once: the instance attribute shadows the method
        self._on_pacer = self._on_pacer
        self._on_rto_event = self._on_rto_event

        self.next_seq = 0                   # next new byte to send
        self.cum_acked = 0                  # all bytes below this are acked
        # seq -> send time; None once resent (its RTT would be ambiguous)
        self.segments: dict[int, int | None] = {}

        self._next_allowed_us = 0           # pacing release time
        self._pacer_scheduled = False

        self.dup_acks = 0
        self.in_recovery = False
        self.recover_seq = 0                # recovery ends when cum_acked >= this

        self.srtt_us: float | None = None
        self.rttvar_us: float = 0.0
        self.rto_us = RTO_MIN_US
        self._rto_deadline: int | None = None
        self._rto_event_at: int | None = None

        self.sent_segments = 0
        self.retransmits = 0
        self.timeouts = 0

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        return self.next_seq - self.cum_acked

    def apply_decision(self) -> None:
        """Nothing to adopt: ``try_send`` reads the decision from the
        controller.  Kept because ``perfbench/spans.py`` names it."""

    # sending -----------------------------------------------------------
    def try_send(self, now: int) -> None:
        """Send new segments while the window and pacer allow."""
        mtu = self.mtu
        ctl = self.controller
        while self.next_seq - self.cum_acked + mtu <= ctl.cwnd:
            gap = ctl.gap_us
            if gap is not None:
                if now < self._next_allowed_us:
                    if not self._pacer_scheduled:
                        self._pacer_scheduled = True
                        self.schedule_event(self._next_allowed_us, self._on_pacer)
                    return
                # the release time has passed, so the next one is a gap from now
                self._next_allowed_us = now + gap
            self._send_new(now)

    def _send_new(self, now: int) -> None:
        seq = self.next_seq
        mtu = self.mtu
        self.segments[seq] = now
        self.next_seq = seq + mtu
        self.sent_segments += 1
        if self._rto_deadline is None:
            self._arm_rto(now + self.rto_us)
        self.transmit(Packet(self.flow_id, seq, mtu, DATA), now)

    def _on_pacer(self, now: int, _: None = None) -> None:
        self._pacer_scheduled = False
        self.try_send(now)

    def _retransmit(self, seq: int, now: int) -> None:
        """Resend one segment; bypasses both the window and the pacer."""
        self.segments[seq] = None
        self.retransmits += 1
        self.transmit(Packet(self.flow_id, seq, self.mtu, DATA), now)

    # acks ---------------------------------------------------------------
    def process_ack(self, pkt: Packet, now: int) -> None:
        ack = pkt.cum_ack
        if ack < self.cum_acked:
            return
        if ack == self.cum_acked:
            self._on_dupack(now)
            return

        newly_acked = ack - self.cum_acked
        rtt_sample = self._take_rtt_sample(ack, now)
        self.cum_acked = ack
        self.dup_acks = 0

        if self.in_recovery:
            if ack >= self.recover_seq:
                self.in_recovery = False
            else:
                # Partial ack: the next hole starts at the new cumulative
                # point; resend it without a second window reduction.
                self._retransmit(ack, now)

        if rtt_sample is not None:
            self._update_rtt(rtt_sample)
        # Progress was made: restart the timer from scratch at the base rto
        if self.next_seq > ack:
            self._arm_rto(now + self.rto_us)
        else:
            self._rto_deadline = None

        self.controller.on_ack(now, newly_acked, rtt_sample, pkt.beta)

    def _on_dupack(self, now: int) -> None:
        if self.in_flight <= 0:
            return
        self.dup_acks += 1
        if self.dup_acks == DUPACK_THRESHOLD and not self.in_recovery:
            self.in_recovery = True
            self.recover_seq = self.next_seq
            self.controller.on_loss(now, LOSS_DUPACK)
            self._retransmit(self.cum_acked, now)

    def _take_rtt_sample(self, ack: int, now: int) -> int | None:
        """RTT from the newest segment covered by this ack, skipping any
        that were retransmitted (their timing is ambiguous)."""
        sample: int | None = None
        seq = self.cum_acked
        while seq < ack:
            t_sent = self.segments.pop(seq, None)
            if t_sent is not None:
                sample = now - t_sent
            seq += self.mtu
        return sample

    def _update_rtt(self, sample_us: int) -> None:
        srtt = self.srtt_us
        if srtt is None:
            srtt = self.srtt_us = float(sample_us)
            rttvar = self.rttvar_us = sample_us / 2
        else:
            rttvar = self.rttvar_us = (
                self.rttvar_us + RTTVAR_GAIN * (abs(srtt - sample_us) - self.rttvar_us))
            srtt = self.srtt_us = srtt + SRTT_GAIN * (sample_us - srtt)
        rto = round(srtt + 4 * rttvar)
        self.rto_us = (RTO_MIN_US if rto < RTO_MIN_US
                       else RTO_MAX_US if rto > RTO_MAX_US else rto)

    # timeout --------------------------------------------------------------
    def _arm_rto(self, deadline: int) -> None:
        """Set the RTO deadline; push an event unless one is already pending
        at or before it (an early event re-arms itself when it fires)."""
        self._rto_deadline = deadline
        pending = self._rto_event_at
        if pending is None or pending > deadline:
            self._rto_event_at = deadline
            self.schedule_event(deadline, self._on_rto_event)

    def _on_rto_event(self, now: int, _: None = None) -> None:
        if now != self._rto_event_at:
            return  # superseded by an earlier push that has already fired
        self._rto_event_at = None
        deadline = self._rto_deadline
        if deadline is None or self.in_flight <= 0:
            return
        if now < deadline:
            # The deadline moved while this event was in flight.
            self._arm_rto(deadline)
            return
        self.timeouts += 1
        self.dup_acks = 0
        self.in_recovery = False
        self.controller.on_loss(now, LOSS_TIMEOUT)
        self.rto_us = min(RTO_MAX_US, self.rto_us * 2)
        self._retransmit(self.cum_acked, now)
        self._arm_rto(now + self.rto_us)
        self.try_send(now)


class UeReceiver:
    """Per-UE receiver: reassembly, immediate acks, activity census."""

    def __init__(self, ue_id: int, transmit_ack: Callable[[Packet, int], None]) -> None:
        self.ue_id = ue_id
        self.transmit_ack = transmit_ack
        self.cum: dict[int, int] = {}            # flow -> next expected byte
        self.ooo: dict[int, dict[int, int]] = {}  # flow -> {seq: size}
        self.last_data_us: dict[int, int] = {}
        # flow -> arrival time of each data packet; ~t for a duplicate
        self.deliveries: defaultdict[int, array] = defaultdict(partial(array, "q"))

    def expected(self, flow_id: int) -> int:
        return self.cum.get(flow_id, 0)

    def active_flows(self, now: int) -> int:
        oldest = now - ACTIVITY_WINDOW_US
        n = 0
        for t in self.last_data_us.values():
            if t >= oldest:
                n += 1
        return n

    def on_data(self, pkt: Packet, now: int) -> None:
        """Integrate and record one data packet, then send it back as its ack."""
        fid = pkt.flow_id
        seq = pkt.seq
        size = pkt.size
        self.last_data_us[fid] = now

        cum = self.cum.get(fid, 0)
        pending = self.ooo.get(fid)
        if seq == cum and not pending:
            # in order with nothing buffered: the segment is new and extends
            # the cumulative point by itself
            first = True
            cum += size
        else:
            if pending is None:
                pending = self.ooo[fid] = {}
            first = seq >= cum and seq not in pending
            if first:
                pending[seq] = size
            while cum in pending:
                cum += pending.pop(cum)
        self.cum[fid] = cum
        self.deliveries[fid].append(now if first else ~now)

        pkt.kind = ACK
        pkt.cum_ack = cum
        # this flow was just stamped active, so the count is at least 1, and
        # Sender.process_ack hands it to the controller as it is
        pkt.beta = self.active_flows(now)
        self.transmit_ack(pkt, now)
