"""Sender state machine (pacing, recovery, RTO) and receiver reassembly."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from natsim.cc import Controller
from natsim.emulink import Packet, PacketKind
from natsim.engine import EventLoop
from natsim.transport import (ACK_SIZE, ACTIVITY_WINDOW_US, RTO_MIN_US, Sender,
                              UeReceiver)

MTU = 1500


class CountingController(Controller):
    """Base controller plus call accounting for loss/ack hooks."""

    def __init__(self, cwnd=15_000, pacing=None):
        super().__init__(MTU)
        self.cwnd = cwnd
        self.pacing_bps = pacing
        self.losses = []
        self.acks = []

    def on_ack(self, now, acked_bytes, rtt_us, beta):
        super().on_ack(now, acked_bytes, rtt_us, beta)
        self.acks.append((now, acked_bytes, rtt_us, beta))

    def on_loss(self, now, kind):
        self.losses.append((now, kind))


def make_sender(cwnd=15_000, pacing=None):
    loop = EventLoop()
    sent = []
    ctl = CountingController(cwnd, pacing)
    snd = Sender(0, MTU, ctl, lambda pkt, now: sent.append((now, pkt)), loop.schedule)
    return snd, ctl, loop, sent


def resent(sent):
    """The (t, pkt) pairs of ``sent`` whose seq already went out: resends."""
    seen = set()
    out = []
    for t, pkt in sent:
        if pkt.seq in seen:
            out.append((t, pkt))
        seen.add(pkt.seq)
    return out


def ack(cum, beta=1, feedback=None):
    return Packet(flow_id=0, seq=0, size=ACK_SIZE, kind=PacketKind.ACK,
                  cum_ack=cum, beta=beta, feedback=feedback)


# -- sending ------------------------------------------------------------------

def test_window_gating_without_pacing():
    snd, _, _, sent = make_sender(cwnd=15_000)
    snd.try_send(0)
    assert len(sent) == 10          # 10 MTU segments fill a 15000 B window
    assert snd.in_flight == 15_000
    assert [pkt.seq for (_, pkt) in sent] == [i * MTU for i in range(10)]
    snd.try_send(5)                  # window still full: nothing new
    assert len(sent) == 10


def test_pacing_spreads_the_window():
    snd, _, loop, sent = make_sender(cwnd=15_000, pacing=12e6)
    snd.try_send(0)
    loop.run_until(50_000)
    times = [t for (t, _) in sent]
    assert times == [i * 1_000 for i in range(10)]   # 1500 B at 12 Mb/s = 1 ms


def test_pacing_gap_follows_every_rate_change():
    snd, ctl, loop, sent = make_sender(cwnd=15_000, pacing=12e6)
    snd.try_send(0)
    loop.run_until(2_500)                 # paced at 12 Mb/s: 1 ms apart
    ctl.pacing_bps = None                 # unpaced: the rest of the window at once
    snd.try_send(2_500)
    loop.run_until(5_000)                 # the pending pacer finds the window full
    ctl.pacing_bps = 6e6                  # paced again at half the rate: 2 ms apart
    snd.process_ack(ack(15_000), now=10_000)
    snd.try_send(10_000)
    loop.run_until(20_000)
    times = [t for (t, _) in sent]
    assert times == ([0, 1_000, 2_000] + [2_500] * 7
                     + [10_000 + i * 2_000 for i in range(6)])


def test_ack_opens_window():
    snd, _, _, sent = make_sender(cwnd=15_000)
    snd.try_send(0)
    snd.process_ack(ack(3_000), now=10_000)
    snd.try_send(10_000)
    assert len(sent) == 12
    assert snd.in_flight == 15_000


def test_stale_ack_ignored():
    snd, ctl, _, _ = make_sender()
    snd.try_send(0)
    snd.process_ack(ack(3_000), now=10_000)
    snd.process_ack(ack(1_500), now=10_100)   # older than cumulative point
    assert snd.cum_acked == 3_000
    assert len(ctl.acks) == 1


# -- fast retransmit / recovery -----------------------------------------------

def test_three_dupacks_trigger_one_retransmit_and_one_cut():
    snd, ctl, _, sent = make_sender()
    snd.try_send(0)
    for i in range(3):
        snd.process_ack(ack(0), now=10_000 + i)
    retx = [pkt for (_, pkt) in resent(sent)]
    assert [p.seq for p in retx] == [0]
    assert ctl.losses == [(10_002, "dupack")]
    assert snd.in_recovery
    assert snd.recover_seq == 15_000
    # further duplicates do not retransmit again or cut again
    snd.process_ack(ack(0), now=10_003)
    assert len(resent(sent)) == 1
    assert len(ctl.losses) == 1


def test_partial_ack_fills_next_hole_without_new_cut():
    snd, ctl, _, sent = make_sender()
    snd.try_send(0)
    for i in range(3):
        snd.process_ack(ack(0), now=10_000 + i)
    snd.process_ack(ack(3_000), now=20_000)   # below recover point (15000)
    retx = [p.seq for (_, p) in resent(sent)]
    assert retx == [0, 3_000]
    assert len(ctl.losses) == 1
    assert snd.in_recovery
    snd.process_ack(ack(15_000), now=30_000)
    assert not snd.in_recovery


# -- RTT estimation --------------------------------------------------------------

def test_rtt_estimator_gains():
    snd, _, _, _ = make_sender()
    snd.try_send(0)
    snd.process_ack(ack(1_500), now=10_000)
    assert snd.srtt_us == 10_000
    assert snd.rttvar_us == 5_000
    assert snd.rto_us == RTO_MIN_US           # 30 ms estimate < 200 ms floor
    snd.process_ack(ack(3_000), now=20_000)   # sample: 20 ms
    assert snd.rttvar_us == pytest.approx(5_000 + 0.25 * (10_000 - 5_000))
    assert snd.srtt_us == pytest.approx(11_250)


def test_retransmitted_segment_gives_no_rtt_sample():
    snd, ctl, _, _ = make_sender(cwnd=1_500)
    snd.try_send(0)                                  # only seq 0 outstanding
    for i in range(3):
        snd.process_ack(ack(0), now=5_000 + i)      # retransmit seq 0
    snd.process_ack(ack(1_500), now=40_000)
    assert snd.srtt_us is None                       # ambiguous sample skipped
    assert ctl.acks[-1][2] is None
    snd.try_send(40_000)                             # seq 1500, never resent
    snd.process_ack(ack(3_000), now=50_000)
    assert snd.srtt_us == 10_000


def test_ack_passes_beta_to_controller():
    snd, ctl, _, _ = make_sender()
    snd.try_send(0)
    snd.process_ack(ack(1_500, beta=3), now=9_000)
    assert ctl.acks[0][3] == 3


# -- timeout ----------------------------------------------------------------------

def test_rto_fires_retransmits_and_backs_off():
    snd, ctl, loop, sent = make_sender()
    snd.try_send(0)
    loop.run_until(RTO_MIN_US)
    assert ctl.losses == [(RTO_MIN_US, "timeout")]
    retx = [(t, p.seq) for (t, p) in resent(sent)]
    assert retx == [(RTO_MIN_US, 0)]
    assert snd.rto_us == 2 * RTO_MIN_US
    assert snd.timeouts == 1
    loop.run_until(3 * RTO_MIN_US)                   # second timeout after 2x
    assert snd.timeouts == 2
    assert snd.rto_us == 4 * RTO_MIN_US


def test_ack_restarts_timer_and_resets_backoff():
    snd, _, loop, sent = make_sender(cwnd=1_500)
    snd.try_send(0)
    loop.run_until(RTO_MIN_US)                        # one timeout: rto doubled
    assert snd.rto_us == 2 * RTO_MIN_US
    # the retransmission is acked: Karn's rule yields no sample, so the
    # backed-off value stays until a fresh segment produces one
    snd.process_ack(ack(1_500), now=250_000)
    assert snd.rto_us == 2 * RTO_MIN_US
    snd.try_send(250_000)                             # seq 1500 goes out fresh
    snd.process_ack(ack(3_000), now=260_000)          # 10 ms sample
    assert snd.rto_us == RTO_MIN_US                   # backoff gone: floor again
    timeouts_before = snd.timeouts
    loop.run_until(2_000_000)                         # nothing outstanding
    assert snd.timeouts == timeouts_before


def backed_off_then_rearmed_earlier():
    """A sender whose backed-off RTO event (600 ms) is superseded by an
    earlier one (430 ms) after a fresh RTT sample resets the timeout."""
    snd, ctl, loop, _ = make_sender(cwnd=3_000)
    snd.try_send(0)                                   # seq 0 and 1500
    loop.run_until(RTO_MIN_US)                        # timeout: event pending at 600 ms
    assert snd.rto_us == 2 * RTO_MIN_US
    snd.process_ack(ack(1_500), now=210_000)          # seq 0 was resent: no sample
    snd.try_send(210_000)                             # seq 3000 goes out fresh
    snd.process_ack(ack(4_500), now=230_000)
    assert snd.srtt_us == 20_000                      # from seq 3000, the newest fresh one
    assert snd.rto_us == RTO_MIN_US
    snd.try_send(230_000)                             # re-arms at 430 ms, before 600 ms
    return snd, ctl, loop


def test_fresh_rtt_sample_pulls_a_backed_off_timeout_earlier():
    snd, ctl, loop = backed_off_then_rearmed_earlier()
    loop.run_until(430_000 - 1)
    assert snd.timeouts == 1
    loop.run_until(700_000)
    assert ctl.losses == [(RTO_MIN_US, "timeout"), (430_000, "timeout")]


def test_superseded_rto_event_leaves_one_pending():
    snd, _, loop = backed_off_then_rearmed_earlier()
    # the 430 ms timeout re-arms at 830 ms; the superseded 600 ms event
    # must then fire without pushing a second event for that deadline
    loop.run_until(700_000)
    pending = [t for (t, _, fn, _) in loop._heap if fn == snd._on_rto_event]
    assert pending == [830_000]


def test_no_timeout_when_everything_acked():
    snd, ctl, loop, _ = make_sender(cwnd=3_000)
    snd.try_send(0)
    snd.process_ack(ack(3_000), now=1_000)
    # cwnd opens again; drain the two new segments too
    snd.try_send(1_000)
    snd.process_ack(ack(snd.next_seq), now=2_000)
    ctl.cwnd = 0                                      # block all further sends
    loop.run_until(10 * RTO_MIN_US)
    assert ctl.losses == []


# -- receiver ----------------------------------------------------------------------

def make_receiver():
    acks = []
    recv = UeReceiver(0, lambda pkt, now: acks.append((now, pkt)))
    return recv, acks


def seg(flow, seq, feedback=None):
    return Packet(flow_id=flow, seq=seq, size=MTU, kind=PacketKind.DATA,
                  feedback=feedback)


def test_receiver_cumulative_and_out_of_order():
    recv, acks = make_receiver()
    recv.on_data(seg(0, 1_500), now=10)     # hole at 0
    assert acks[-1][1].cum_ack == 0
    recv.on_data(seg(0, 0), now=20)
    assert acks[-1][1].cum_ack == 3_000      # both integrated
    assert list(recv.deliveries[0]) == [10, 20]   # both new payload


def test_receiver_duplicate_counts_throughput_not_goodput():
    recv, acks = make_receiver()
    recv.on_data(seg(0, 0), now=10)
    assert recv.deliveries[0][-1] == 10             # new payload: its time
    recv.on_data(seg(0, 0), now=20)
    assert recv.deliveries[0][-1] == ~20            # duplicate: ~time
    deliveries = recv.deliveries[0]
    assert len(deliveries) * MTU == 3_000                    # throughput
    assert sum(1 for t in deliveries if t >= 0) * MTU == 1_500  # goodput
    assert acks[-1][1].cum_ack == 1_500


def test_receiver_acks_every_packet_with_fixed_size():
    recv, acks = make_receiver()
    for i in range(4):
        recv.on_data(seg(0, i * MTU), now=10 + i)
    assert len(acks) == 4
    assert all(pkt.size == ACK_SIZE for (_, pkt) in acks)
    assert all(pkt.kind is PacketKind.ACK for (_, pkt) in acks)


def test_receiver_beta_counts_recently_active_flows():
    recv, acks = make_receiver()
    recv.on_data(seg(0, 0), now=0)
    assert acks[-1][1].beta == 1
    recv.on_data(seg(1, 0), now=1_000)
    assert acks[-1][1].beta == 2
    # flow 1 goes quiet for over a second: only flow 0 counts again
    recv.on_data(seg(0, 1_500), now=1_200_000)
    assert acks[-1][1].beta == 1


def test_receiver_echoes_piggybacked_feedback():
    recv, acks = make_receiver()
    recv.on_data(seg(0, 0, feedback="digest"), now=5)
    recv.on_data(seg(0, 1_500), now=6)
    assert acks[0][1].feedback == "digest"
    assert acks[1][1].feedback is None


def test_receiver_turns_the_data_packet_into_its_ack():
    recv, acks = make_receiver()
    pkt = seg(0, 0, feedback="digest")
    recv.on_data(pkt, now=5)
    assert acks[-1][1] is pkt
    assert (pkt.kind, pkt.size, pkt.cum_ack, pkt.beta) == (PacketKind.ACK, ACK_SIZE,
                                                           1_500, 1)
    assert pkt.feedback == "digest"


# Arrivals of 1-3 flows' MTU segments in any order, with gaps of up to 1.5 s:
# (flow, segment index, microseconds since the previous arrival).  Repeated
# draws are duplicates and retransmissions; segments never drawn are holes.
ARRIVALS = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, 7), st.integers(0, 1_500_000)),
    min_size=1, max_size=40)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(ARRIVALS)
def test_receiver_matches_reference_reassembly(arrivals):
    recv, acks = make_receiver()
    received = {}        # flow -> indices of segments that arrived
    last_us = {}         # flow -> time of its latest arrival
    delivered = {}
    now = 0
    for flow, index, gap in arrivals:
        now += gap
        recv.on_data(seg(flow, index * MTU), now)
        t = recv.deliveries[flow][-1]
        first = t >= 0
        assert (t if first else ~t) == now

        seen = received.setdefault(flow, set())
        assert first == (index not in seen)
        seen.add(index)
        last_us[flow] = now
        delivered[flow] = delivered.get(flow, 0) + MTU
        cum = 0
        while cum in seen:
            cum += 1
        ack_now, ack_pkt = acks[-1]
        assert ack_now == now
        assert (ack_pkt.flow_id, ack_pkt.seq) == (flow, index * MTU)
        assert ack_pkt.cum_ack == cum * MTU
        assert ack_pkt.beta == sum(1 for t in last_us.values()
                                   if now - t <= ACTIVITY_WINDOW_US)
    assert len(acks) == len(arrivals)
    assert {f: len(d) * MTU for f, d in recv.deliveries.items()} == delivered
    assert ({f: sum(1 for t in d if t >= 0) * MTU for f, d in recv.deliveries.items()}
            == {f: len(seen) * MTU for f, seen in received.items()})
