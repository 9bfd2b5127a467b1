"""Microbenchmarks of the per-packet and per-period entry points."""

import itertools
import random

import pytest

from natsim.cc import make_controller
from natsim.emulink import Packet, PacketKind, PathConfig
from natsim.netassist import NetAssist, NetAssistConfig
from natsim.trace import synth_constant
from natsim.transport import Sender, UeReceiver

pytestmark = pytest.mark.microbench


def test_trace_index_at_or_after(benchmark):
    schedule = synth_constant(12e6, 60_000)
    rng = random.Random(1)
    times = [rng.randrange(120_000_000) for _ in range(1000)]

    def query():
        for t in times:
            schedule.index_at_or_after(t)

    benchmark(query)


def test_sender_try_send(benchmark):
    """A fresh cubic sender filling its 10-segment initial window."""

    def fresh():
        sender = Sender(0, 1500, make_controller("cubic", 1500),
                        lambda pkt, now: None, lambda t, fn, args=(): None)
        return (sender,), {}

    benchmark.pedantic(lambda sender: sender.try_send(0), setup=fresh, rounds=2000)


def test_receiver_on_data(benchmark):
    """In-order arrivals on one flow, each acked."""
    receiver = UeReceiver(0, lambda ack, now: None)
    seqs = itertools.count(0, 1500)

    def arrive():
        seq = next(seqs)
        receiver.on_data(Packet(flow_id=0, seq=seq, size=1500, kind=PacketKind.DATA), seq)

    benchmark(arrive)


def test_netassist_emit(benchmark):
    """One feedback period for 64 UEs on a 48 Mbit/s schedule."""
    schedule = synth_constant(48e6, 10_000)
    assist = NetAssist(NetAssistConfig(period_us=20_000), schedule, PathConfig(),
                       list(range(64)), lambda now: 5_000)
    nows = itertools.count(200_000, 20_000)
    benchmark(lambda: assist.emit(next(nows)))
