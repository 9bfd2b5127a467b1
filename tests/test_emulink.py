"""Bottleneck link: droptail queueing, trace-driven drain, uplink, probes."""

import os
import random
import struct
import subprocess
import sys
from collections import deque
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import natsim
from natsim.config import build_config
from natsim.emulink import (
    ACK_SIZE, EVENT_KINDS, BtsLink, LinkError, Packet, PacketKind, PathConfig, UeQueue,
)
from natsim.engine import EventLoop, Simulation
from natsim.trace import synth_constant


def data(flow=0, seq=0, size=1500):
    return Packet(flow_id=flow, seq=seq, size=size, kind=PacketKind.DATA)


def unpack_row(row: bytes) -> tuple:
    """One packed event-log row as (t_us, kind, flow, seq, qdelay_us)."""
    t, kind, flow, seq, qdelay = struct.unpack("5q", row)
    return t, EVENT_KINDS[kind], flow, seq, qdelay


def make_link(rate_bps=12e6, duration_ms=2_000, path=None, capacity=150_000,
              ues=(0,), loss=0.0, seed=1, logged=True, on_ack=None):
    loop = EventLoop()
    log = []
    path = path or PathConfig(loss_prob=loss)
    link = BtsLink(
        synth_constant(rate_bps, duration_ms),
        path,
        random.Random(seed),
        loop,
        (lambda row: log.append(unpack_row(row))) if logged else None,
        on_ack,
    )
    delivered = {ue: [] for ue in ues}
    for ue in ues:
        link.register_ue(ue, capacity, lambda pkt, now, ue=ue: delivered[ue].append((now, pkt)))
    return link, loop, log, delivered


# -- queue -------------------------------------------------------------------

def test_queue_droptail_and_conservation():
    q = UeQueue(0, capacity_bytes=3_000)
    assert q.offer(data(seq=0), now=1)
    assert q.offer(data(seq=1500), now=2)
    assert not q.offer(data(seq=3000), now=3)   # full: dropped whole
    assert q.enqueued_bytes == 3000              # the dropped bytes never entered
    assert [p.seq for p in q.fifo] == [0, 1500]
    assert q.occupancy == 3000
    pkt = q.pop(now=10)
    assert pkt.seq == 0
    assert q.enqueued_bytes == q.dequeued_bytes + q.occupancy


def small_sim():
    return Simulation(build_config(None, {"duration_s": "0.5"}))


TWO_UES = {"duration_s": "0.5", "flows.start_s": "0, 0", "flows.ue": "3, 7"}
# the same on a walk trace: with no log, arrivals wait on the downlink leg
# after the last service
WALK_TWO_UES = {**TWO_UES, "trace": "walk:1mbps-24mbps@100ms"}


def test_queue_audit_raises_when_byte_identity_breaks():
    # the identity is checked once, at the end of the run, not per mutation;
    # the error names the UE whose queue broke
    sim = Simulation(build_config(None, TWO_UES))
    sim.link.queue_for(7).enqueued_bytes += 1
    with pytest.raises(LinkError, match="byte identity broken at UE 7$"):
        sim.run()


def test_queue_audit_survives_optimized_python():
    # plain asserts vanish under -O; the end-of-run check must not
    code = (
        "from natsim.config import build_config\n"
        "from natsim.emulink import LinkError\n"
        "from natsim.engine import Simulation\n"
        f"sim = Simulation(build_config(None, {TWO_UES!r}))\n"
        "sim.link.queue_for(7).enqueued_bytes += 1\n"
        "try:\n"
        "    sim.run()\n"
        "except LinkError as exc:\n"
        "    print('raised', __debug__, exc)\n"
    )
    src = str(Path(natsim.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "raised False queue byte identity broken at UE 7"


def test_packet_audit_raises_when_a_flow_count_breaks():
    # per flow: sent + retransmitted = delivered + dropped + held by the link
    sim = Simulation(build_config(None, TWO_UES))
    sim.link.drops_by_flow[1] = 1   # a drop that never happened
    with pytest.raises(LinkError, match="^packet count broken for flow 1$"):
        sim.run()


def test_packet_audit_catches_an_arrival_never_admitted():
    # with no log, the arrivals after the last service wait on the downlink
    # leg; one left there that is due by the end of the run breaks the audit
    sim = Simulation(build_config(None, WALK_TWO_UES))
    sim.link.admit_until = lambda t_end_us: None
    with pytest.raises(LinkError, match=r"^flow \d: a packet that arrived at "
                                        r"\d+ us was never admitted$"):
        sim.run()


def test_packet_audit_survives_optimized_python():
    code = (
        "from natsim.config import build_config\n"
        "from natsim.emulink import LinkError\n"
        "from natsim.engine import Simulation\n"
        "for attr, broken in (('drops_by_flow', {1: 1}),\n"
        "                     ('admit_until', lambda t_end_us: None)):\n"
        f"    sim = Simulation(build_config(None, {WALK_TWO_UES!r}))\n"
        "    setattr(sim.link, attr, broken)\n"
        "    try:\n"
        "        sim.run()\n"
        "    except LinkError as exc:\n"
        "        print('raised', __debug__, str(exc).split(':')[0])\n"
    )
    src = str(Path(natsim.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.splitlines() == ["raised False packet count broken for flow 1",
                                       "raised False flow 0"]


def test_conservation_checks_occupancy_bounds_and_held_bytes():
    link, loop, _, _ = make_link(capacity=3_000)
    q = link.queue_for(0)
    link.send_downlink(q, data(seq=0), now=0)
    loop.run_until(2_600)                    # enqueued, not yet served
    assert link.conservation_ok()
    q.occupancy += 1                         # no longer the bytes it holds
    q.enqueued_bytes += 1
    assert not link.conservation_ok()
    q.occupancy -= 1
    q.enqueued_bytes -= 1
    q.fifo.extend([data(seq=1500), data(seq=3000)])
    q.occupancy += 3_000                     # the bytes it holds, over capacity
    q.enqueued_bytes += 3_000
    assert not link.conservation_ok()


def test_queue_delay_sampled_at_dequeue():
    q = UeQueue(0, capacity_bytes=10_000)
    q.offer(data(), now=5)
    q.pop(now=25)
    assert list(q.qdelay_samples_us) == [20]


# -- downlink ----------------------------------------------------------------

def test_downlink_propagation_then_service():
    link, loop, log, delivered = make_link()
    link.send_downlink(link.queue_for(0), data(seq=0), now=0)
    loop.run_until(100_000)
    (t_dlv, pkt), = delivered[0]
    # arrives at queue at 2_500 (one-way delay), served at next opportunity
    assert pkt.t_enqueued == 2_500
    assert t_dlv == 3_000            # opportunities every 1 ms
    assert [row[:2] for row in log] == [(0, "snd"), (2_500, "enq"),
                                        (3_000, "deq"), (3_000, "dlv")]


def test_an_unknown_ue_is_refused_at_wiring():
    # before any packet is sent: the link has no queue for it to take
    link, _, _, _ = make_link()
    with pytest.raises(LinkError, match="unknown UE"):
        link.queue_for(99)
    with pytest.raises(LinkError, match="unknown UE"):
        small_sim()._make_transmit(99)


def test_fifo_order_and_backlog_drain():
    link, loop, log, delivered = make_link()
    for i in range(5):
        link.send_downlink(link.queue_for(0), data(seq=i * 1500), now=0)
    loop.run_until(100_000)
    seqs = [pkt.seq for (_, pkt) in delivered[0]]
    assert seqs == [0, 1500, 3000, 4500, 6000]
    times = [t for (t, _) in delivered[0]]
    assert times == [3_000, 4_000, 5_000, 6_000, 7_000]


def test_droptail_records_drop_rows():
    link, loop, log, delivered = make_link(capacity=3_000)
    for i in range(4):
        link.send_downlink(link.queue_for(0), data(seq=i * 1500), now=0)
    loop.run_until(50_000)
    drops = [row for row in log if row[1] == "drop"]
    assert len(drops) == 2
    assert link.drops_by_flow[0] == 2
    assert len(delivered[0]) == 2
    assert link.conservation_ok()


def test_round_robin_across_ues():
    link, loop, log, delivered = make_link(ues=(0, 1))
    for i in range(2):
        link.send_downlink(link.queue_for(0), data(flow=0, seq=i * 1500), now=0)
        link.send_downlink(link.queue_for(1), data(flow=1, seq=i * 1500), now=0)
    loop.run_until(50_000)
    order = [(row[2], row[0]) for row in log if row[1] == "deq"]
    flows = [f for (f, _) in order]
    assert flows == [0, 1, 0, 1]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(ues=st.lists(st.integers(0, 9), min_size=1, max_size=6, unique=True),
       sends=st.lists(st.tuples(st.integers(0, 80), st.integers(0, 5)),
                      min_size=1, max_size=40),
       capacity=st.sampled_from([3_000, 150_000]))
@example(ues=[5, 2, 7, 0], sends=[(0, 0), (0, 2), (0, 2), (0, 3), (30, 1)],
         capacity=150_000)
def test_round_robin_matches_a_scan_of_the_registration_order(ues, sends, capacity):
    # UEs register in the drawn order, so rank and id differ; sends at
    # random instants let queues empty between bursts
    link, loop, log, _ = make_link(ues=tuple(ues), capacity=capacity)
    next_seq = dict.fromkeys(ues, 0)
    for t_half_ms, k in sorted(sends):
        ue = ues[k % len(ues)]
        link.send_downlink(link.queue_for(ue), data(flow=ue, seq=next_seq[ue]),
                           now=t_half_ms * 500)
        next_seq[ue] += 1500
    loop.run_until(1_000_000)

    # reference: go round the registration order from the position after
    # the last UE served, and serve at the first unserved opportunity
    schedule = link.schedule
    fifo = {ue: deque() for ue in ues}
    pos, last_deq, due = 0, -1, None
    for t, kind, flow, seq, *_ in log:
        if kind == "enq":
            if not any(fifo.values()):
                due = schedule.instant(schedule.index_at_or_after(max(t, last_deq + 1)))
            fifo[flow].append(seq)
        elif kind == "deq":
            for off in range(len(ues)):
                ue = ues[(pos + off) % len(ues)]
                if fifo[ue]:
                    break
            pos = (pos + off + 1) % len(ues)
            assert (t, flow, seq) == (due, ue, fifo[ue].popleft())
            last_deq = t
            due = schedule.instant(schedule.index_at_or_after(t + 1))
    assert not any(fifo.values())
    assert link.served_opportunities == sum(row[1] == "deq" for row in log)


def test_served_opportunities_match_the_pooled_delay_samples():
    # a lossy run on two UEs with the log off: every service pops one packet,
    # which keeps one delay sample and is then delivered or lost in the air
    sim = Simulation(build_config(None, {**TWO_UES, "path.loss_prob": "0.05"}))
    result = sim.run()
    link = sim.link
    assert link.air_drops > 0 and all(q.qdelay_samples_us for q in link.queues.values())
    assert link.served_opportunities == len(result.qdelay_samples_us) == (
        sum(len(f.deliveries) for f in result.flows) + link.air_drops)
    offered = sim.schedule.index_at_or_after(result.duration_us + 1)
    assert link.idle_opportunities(result.duration_us) == offered - link.served_opportunities


def test_downlink_arrivals_keep_send_order_across_ues():
    link, loop, log, delivered = make_link(ues=(0, 1))
    link.send_downlink(link.queue_for(1), data(flow=1, seq=0), now=0)
    link.send_downlink(link.queue_for(0), data(flow=0, seq=0), now=0)
    link.send_downlink(link.queue_for(1), data(flow=1, seq=1500), now=0)
    loop.run_until(50_000)
    enq = [(row[0], row[2], row[3]) for row in log if row[1] == "enq"]
    assert enq == [(2_500, 1, 0), (2_500, 0, 0), (2_500, 1, 1500)]


def test_unused_opportunities_are_not_banked():
    link, loop, log, delivered = make_link()
    # Queue joins at t=10.2 ms; the ten earlier opportunities must not burst.
    link.send_downlink(link.queue_for(0), data(seq=0), now=10_000)   # enqueued 12_500
    link.send_downlink(link.queue_for(0), data(seq=1500), now=10_000)
    loop.run_until(100_000)
    times = [t for (t, _) in delivered[0]]
    assert times == [13_000, 14_000]


# -- lazy admission: no log, so services admit the arrivals ----------------------

def replay(sends, logged, t_end_us, capacity=150_000, ues=(0,)):
    """Send ``(t_us, ue, seq)`` data packets from loop events, run to
    ``t_end_us`` and admit what is due; return the link, its loop, each
    ``_arrive`` call as ``(now, seq)`` and what the link observably did."""
    link, loop, _, delivered = make_link(capacity=capacity, ues=ues, logged=logged)
    arrivals = []
    arrive = link._arrive

    def counted(now, arg):
        arrivals.append((now, arg[0].seq))
        arrive(now, arg)

    def send(now, arg):
        ue, seq = arg
        link.send_downlink(link.queue_for(ue), data(flow=ue, seq=seq), now)

    link._arrive = counted   # entries take the handler at send time
    for t_us, ue, seq in sends:
        loop.schedule(t_us, send, (ue, seq))
    loop.run_until(t_end_us)
    link.admit_until(t_end_us)
    seen = {
        "delivered": {ue: [(t, p.seq) for t, p in d] for ue, d in delivered.items()},
        "queues": [(q.enqueued_bytes, q.dequeued_bytes, q.occupancy,
                    list(q.qdelay_samples_us), [(p.seq, p.t_enqueued) for p in q.fifo])
                   for q in link.queues.values()],
        "drops": link.drops_by_flow,
        "served": link.served_opportunities,
        "held": link.held_by_flow(t_end_us),
    }
    return link, loop, arrivals, seen


def test_drop_burst_between_two_services_matches_the_logged_run():
    # two packets land at 2.5 ms and are served at 3 and 4 ms; a burst of
    # five lands at 3.2 ms into a 2-packet queue holding one: one fits
    sends = [(0, 0, 0), (0, 0, 1500)] + [(700, 0, 3000 + 1500 * i) for i in range(5)]
    lazy_link, lazy_loop, lazy_arrivals, lazy = replay(sends, False, 50_000, 3_000)
    _, logged_loop, _, logged = replay(sends, True, 50_000, 3_000)
    assert lazy == logged
    assert lazy["drops"] == {0: 4}
    assert lazy["queues"][0][3] == [500, 1_500, 1_800]
    assert lazy_arrivals == [(2_500, 0)]   # the rest were admitted by services
    assert lazy_loop.processed == logged_loop.processed - 6


def test_arrivals_after_the_last_service_are_admitted_by_the_end():
    # served at 3 and 4 ms; the next service is at 5 ms, after the end at
    # 4.6 ms, so the arrivals at 4.3 and 4.6 ms wait on the leg until
    # admit_until; the one at 4.601 ms stays there
    sends = [(0, 0, 0), (0, 0, 1500), (1_000, 0, 3000), (1_800, 0, 4500),
             (2_100, 0, 6000), (2_101, 0, 7500)]
    link, loop, _, _ = make_link(logged=False)
    for t_us, _, seq in sends:
        loop.schedule(t_us, lambda now, seq: link.send_downlink(
            link.queue_for(0), data(seq=seq), now), seq)
    loop.run_until(4_600)
    with pytest.raises(LinkError, match="^flow 0: a packet that arrived at "
                                        "4300 us was never admitted$"):
        link.held_by_flow(4_600)
    _, _, _, lazy = replay(sends, False, 4_600)
    _, _, _, logged = replay(sends, True, 4_600)
    assert lazy == logged
    assert lazy["queues"][0][4] == [(3000, 3_500), (4500, 4_300), (6000, 4_600)]
    assert lazy["held"] == {0: 4}   # three queued, one still on the leg


def test_a_leg_head_pushed_while_the_backlog_was_empty_is_handled_once():
    # A is served at 3 ms and empties the backlog, so the service pushes B,
    # which lands at 3.1 ms through _arrive; C lands at 3.2 ms behind B's
    # backlog and is admitted by the service at 4 ms
    sends = [(0, 0, 0), (600, 0, 1500), (700, 0, 3000)]
    _, lazy_loop, lazy_arrivals, lazy = replay(sends, False, 50_000)
    _, _, logged_arrivals, logged = replay(sends, True, 50_000)
    assert lazy == logged
    assert lazy["delivered"] == {0: [(3_000, 0), (4_000, 1500), (5_000, 3000)]}
    assert lazy_arrivals == [(2_500, 0), (3_100, 1500)]
    assert logged_arrivals == [(2_500, 0), (3_100, 1500), (3_200, 3000)]
    assert not lazy_loop._heap


@settings(max_examples=100, derandomize=True, deadline=None)
@given(ues=st.integers(1, 4),
       sends=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 3)),
                      min_size=1, max_size=40),
       capacity=st.sampled_from([1_500, 3_000, 15_000]),
       t_end_ms=st.integers(1, 25))
def test_lazy_admission_matches_the_logged_link(ues, sends, capacity, t_end_ms):
    # bursts at random half-milliseconds let the backlog empty and refill;
    # every packet due by the end is admitted exactly once on both paths
    timed = [(t * 500, k % ues, 1500 * i) for i, (t, k) in enumerate(sorted(sends))]
    t_end_us = t_end_ms * 1_000
    link, _, arrivals, lazy = replay(timed, False, t_end_us, capacity, tuple(range(ues)))
    _, _, _, logged = replay(timed, True, t_end_us, capacity, tuple(range(ues)))
    assert lazy == logged
    due = sum(t + 2_500 <= t_end_us for t, _, _ in timed)
    admitted = (sum(q.enqueued_bytes // 1500 for q in link.queues.values())
                + sum(link.drops_by_flow.values()))   # no air loss: every drop is at a queue
    assert admitted == due
    assert len(set(arrivals)) == len(arrivals)


# -- air loss -------------------------------------------------------------------

def test_air_loss_drops_after_dequeue():
    link, loop, log, delivered = make_link(loss=1.0)
    link.send_downlink(link.queue_for(0), data(seq=0), now=0)
    loop.run_until(50_000)
    assert delivered[0] == []
    assert link.air_drops == 1
    assert link.drops_by_flow[0] == 1
    # the queue-delay sample still exists: the packet did occupy the queue
    assert list(link.queue_for(0).qdelay_samples_us) == [500]


def test_loss_rng_untouched_when_disabled():
    rng = random.Random(3)
    before = rng.getstate()
    link, loop, _, _ = make_link()
    link.rng = rng
    for i in range(5):
        link.send_downlink(link.queue_for(0), data(seq=i * 1500), now=0)
    loop.run_until(50_000)
    assert rng.getstate() == before


# -- in-band digests ---------------------------------------------------------

def test_attach_ib_latest_wins_and_single_use():
    link, loop, _, delivered = make_link()
    link.send_downlink(link.queue_for(0), data(seq=0), now=0)
    link.send_downlink(link.queue_for(0), data(seq=1500), now=0)
    link.attach_ib(0, "stale")
    link.attach_ib(0, "fresh")
    loop.run_until(50_000)
    carried = [pkt.feedback for (_, pkt) in delivered[0]]
    assert carried == ["fresh", None]


# -- uplink and probes ---------------------------------------------------------

def test_uplink_delay_includes_serialization():
    arrivals = []
    link, loop, _, _ = make_link(on_ack=lambda now, pkt: arrivals.append(now))
    # an ack keeps its data packet's size; the uplink charges it ACK_SIZE
    ack = Packet(flow_id=0, seq=0, size=1500, kind=PacketKind.ACK, cum_ack=1500)
    link.send_uplink(ack, now=1_000)
    loop.run_until(50_000)
    # 6457 us propagation + round(64*8e6/12e6) = 43 us serialization
    assert arrivals == [1_000 + 6_457 + 43]


class Leg(deque):
    """A link leg that records, in ``left``, each entry as it leaves."""

    def __init__(self, name, left):
        super().__init__()
        self.name, self.left = name, left

    def popleft(self):
        entry = super().popleft()
        self.left.append((self.name, entry))
        return entry


def send_on_both_legs(sends, path, logged):
    """Send data packets and acks from loop events at the drawn gaps, run
    until every one has left its leg, and return what each leg did: the
    sends as ``(leg, t_us, tick, pkt)``, the entries in the order they left
    and each ack's arrival."""
    sent, acked = [], []
    link, loop, _, _ = make_link(path=path, ues=(0, 1), logged=logged,
                                 on_ack=lambda now, pkt: acked.append((now, pkt)))
    left = []
    link._down, link._up = Leg("data", left), Leg("ack", left)
    reserve, ticks = link._reserve, []
    link._reserve = lambda: ticks.append(reserve()) or ticks[-1]

    def send(now, arg):
        i, leg, value = arg
        n = len(ticks)
        if leg == "data":
            pkt = data(flow=value, seq=1500 * i)
            link.send_downlink(link.queue_for(value), pkt, now)
        else:
            pkt = Packet(flow_id=0, seq=0, size=value, kind=PacketKind.ACK, cum_ack=i)
            link.send_uplink(pkt, now)
        (tick,) = ticks[n:]   # a send takes one tick
        sent.append((leg, now, tick, pkt))

    t_us = 0
    for i, (gap_us, (leg, arg)) in enumerate(sends):
        t_us += gap_us
        loop.schedule(t_us, send, (i, leg, arg))
    loop.run_until(1_000_000)
    link.admit_until(1_000_000)
    assert not link._down and not link._up
    return sent, left, acked


@settings(max_examples=100, derandomize=True, deadline=None)
@given(sends=st.lists(st.tuples(st.one_of(st.just(0), st.integers(0, 2_000)),
                                st.sampled_from([("data", 0), ("data", 1), ("ack", ACK_SIZE),
                                                 ("ack", 1500), ("ack", 9000)])),
                      min_size=1, max_size=40),
       path=st.sampled_from([PathConfig(), PathConfig(down_owd_us=0, uplink_rate_bps=1e6),
                             PathConfig(uplink_rate_bps=0)]))
def test_each_leg_delivers_in_send_order_after_its_constant_delay(sends, path):
    # whatever an ack's size field says, each leg's delay is one constant,
    # so every packet leaves its leg in send order, keyed (send time +
    # delay, the tick it took at send)
    delay = {"data": path.down_owd_us,
             "ack": path.up_owd_us + path.serialization_us(ACK_SIZE)}
    for logged in (True, False):
        sent, left, acked = send_on_both_legs(sends, path, logged)
        for leg in ("data", "ack"):
            due = [(t + delay[leg], tick, id(pkt)) for name, t, tick, pkt in sent if name == leg]
            gone = [(e[0], e[1], id(e[3][0] if leg == "data" else e[3]))
                    for name, e in left if name == leg]
            assert gone == due
        due = [(t + delay["ack"], id(pkt)) for name, t, _, pkt in sent if name == "ack"]
        assert [(now, id(pkt)) for now, pkt in acked] == due
        assert all(pkt.t_enqueued == t + delay["data"]
                   for name, t, _, pkt in sent if name == "data")
        if logged:   # every entry leaves through the heap, in key order
            keys = [e[:2] for _, e in left]
            assert keys == sorted(keys)


def test_probe_rtt_fixed_and_jittered():
    link, _, _, _ = make_link()
    assert link.probe_rtt(0) == 5_000
    assert link.probe_rtt(123_456) == 5_000

    jittered, _, _, _ = make_link(path=PathConfig(probe_jitter_us=400))
    samples = {jittered.probe_rtt(50_000) for _ in range(5)}
    assert len(samples) == 1            # reproducible per query time
    sample = samples.pop()
    assert 5_000 - 400 <= sample <= 5_000 + 400


def test_serialization_zero_rate_means_ideal():
    path = PathConfig(uplink_rate_bps=0)
    assert path.serialization_us(64) == 0


def test_register_twice_rejected():
    link, _, _, _ = make_link()
    with pytest.raises(LinkError, match="already registered"):
        link.register_ue(0, 1000, lambda pkt, now: None)
