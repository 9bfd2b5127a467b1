"""Simulation wiring, metrics helpers, determinism, conservation."""

import dis
import inspect
import math
import os
import random
import sys
import tracemalloc
from heapq import heappop

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from natsim import engine
from natsim.cc import SCHEMES
from natsim.config import ConfigError, SimConfig, build_config
from natsim.engine import (
    WATCHDOG_PERIODS,
    EventLoop,
    Simulation,
    compute_power,
    percentile,
    run_simulation,
)
from natsim.netassist import NetAssistConfig
from natsim.trace import TraceError


def cfg(**kw):
    base = dict(scheme="natcp", trace="const:12mbps", duration_s=5.0, seed=1)
    base.update(kw)
    path_kw = base.pop("path_kw", None)
    c = SimConfig(**base)
    if path_kw:
        for k, v in path_kw.items():
            setattr(c.path, k, v)
    return c


# -- metrics helpers ------------------------------------------------------------

def test_percentile_nearest_rank_examples():
    assert percentile(list(range(1, 101)), 0.95) == 95
    assert percentile([7], 0.95) == 7
    assert percentile([1, 2, 3, 4], 0.5) == 2
    assert percentile([3, 1, 2], 1.0) == 3
    assert percentile([5, 9], 0.01) == 5


def test_percentile_against_counting_oracle():
    rng = random.Random(123)
    for _ in range(300):
        n = rng.randint(1, 60)
        xs = [rng.randint(0, 1_000) for _ in range(n)]
        q = rng.choice([0.05, 0.5, 0.9, 0.95, 0.99, 1.0])
        got = percentile(xs, q)
        # oracle: smallest value covering at least a fraction q of samples
        want = min(v for v in xs if sum(x <= v for x in xs) >= q * n)
        assert got == want


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1], 0.0)
    with pytest.raises(ValueError):
        percentile([1], 1.5)


def test_compute_power():
    assert compute_power(12.0, 3.0) == 4.0
    assert compute_power(12.0, 0.0) == math.inf
    assert compute_power(12.0, None) is None


def test_event_loop_fifo_among_ties():
    loop = EventLoop()
    seen = []

    def record(now, label):
        seen.append(label)

    loop.schedule(10, record, "first")
    loop.schedule(10, record, "second")
    loop.schedule(5, record, "early")
    loop.run_until(100)
    assert seen == ["early", "first", "second"]


def test_event_loop_reserved_tick_runs_before_later_schedules():
    loop = EventLoop()
    seen = []
    tick = loop.reserve()
    loop.schedule(10, lambda now, _: seen.append("scheduled later"))
    loop.push((10, tick, lambda now, _: seen.append("reserved earlier"), None))
    loop.run_until(100)
    assert seen == ["reserved earlier", "scheduled later"]


def test_event_loop_ignores_events_past_horizon():
    loop = EventLoop()
    seen = []
    loop.schedule(10, lambda now, _: seen.append(10))
    loop.schedule(20, lambda now, _: seen.append(20))
    loop.run_until(15)
    assert seen == [10]


def test_run_until_dispatches_each_event_with_a_plain_call():
    # fn(t, *args) compiles to CALL_FUNCTION_EX, which builds an argument
    # tuple and re-enters the interpreter; fn(t, arg) is a plain call
    ops = {ins.opname for ins in dis.get_instructions(EventLoop.run_until)}
    assert "CALL_FUNCTION_EX" not in ops


@pytest.mark.parametrize("log_events", [False, True])
@pytest.mark.parametrize("mode", ["oob", "ib"])
def test_every_heap_entry_is_a_handler_and_its_one_arg(monkeypatch, mode, log_events):
    # loop.push and loop.schedule both push through the engine's heappush;
    # every entry must be (t_us, tick, fn, arg) with fn(t_us, arg) a valid call
    handlers = set()
    heappush = engine.heappush

    def checked(heap, entry):
        assert type(entry) is tuple and len(entry) == 4
        t_us, _, fn, arg = entry
        inspect.signature(fn).bind(t_us, arg)
        handlers.add(fn.__name__)
        heappush(heap, entry)

    monkeypatch.setattr(engine, "heappush", checked)
    sim = Simulation(cfg(duration_s=1.0, assist=NetAssistConfig(mode=mode),
                         log_events=log_events, flow_starts_s=(0.0, 0.3),
                         flow_ues=(0, 1)))
    sim.run()
    want = {"_emit_feedback", "_start_flow", "_watchdog_check", "_arrive",
            "_on_opportunity", "_ack_arrive", "_on_pacer", "_on_rto_event"}
    assert handlers == (want | {"_oob_arrive"} if mode == "oob" else want)


@pytest.mark.parametrize("log_events", [False, True])
@pytest.mark.parametrize("mode", ["oob", "ib"])
def test_per_packet_handlers_are_bound_once_at_wiring(monkeypatch, mode, log_events):
    # each link and sender pushes every one of its handlers as one object,
    # not a bound method built per push; acks go from each receiver straight
    # onto the link, and from the link straight to _on_ack_arrival
    pushed = []
    heappush = engine.heappush

    def kept(heap, entry):
        pushed.append(entry[2])
        heappush(heap, entry)

    def unused(self, pkt, now):
        raise AssertionError("an ack passed through Simulation._transmit_ack")

    monkeypatch.setattr(engine, "heappush", kept)
    monkeypatch.setattr(Simulation, "_transmit_ack", unused)
    sim = Simulation(cfg(duration_s=1.0, assist=NetAssistConfig(mode=mode),
                         log_events=log_events, flow_starts_s=(0.0, 0.3),
                         flow_ues=(0, 1)))
    result = sim.run()
    assert all(f.delivered_bytes > 0 for f in result.flows)
    assert all(s.cum_acked > 0 for s in sim.senders.values())
    for receiver in sim.receivers.values():
        assert receiver.transmit_ack == sim.link.send_uplink
    owners = {"_arrive": [sim.link], "_on_opportunity": [sim.link],
              "_ack_arrive": [sim.link], "_on_pacer": list(sim.senders.values()),
              "_on_rto_event": list(sim.senders.values())}
    for name, objs in owners.items():
        # only the first flow paces here; each handler is pushed again and again
        by_owner = [[fn for fn in pushed
                     if fn.__name__ == name and getattr(fn, "__self__", None) is obj]
                    for obj in objs]
        assert max(map(len, by_owner)) > 1, name
        for fns in by_owner:
            assert all(fn is fns[0] for fn in fns), name


# -- end-to-end wiring -------------------------------------------------------------

def test_deterministic_replay_same_seed():
    a = run_simulation(cfg(path_kw={"loss_prob": 0.02}, seed=7, log_events=True))
    b = run_simulation(cfg(path_kw={"loss_prob": 0.02}, seed=7, log_events=True))
    assert a.departures() == b.departures()
    assert a.event_log == b.event_log
    assert a.feedback_log == b.feedback_log
    assert a.summary_row() == b.summary_row()


def test_different_seed_changes_loss_pattern():
    a = run_simulation(cfg(path_kw={"loss_prob": 0.02}, seed=7, log_events=True))
    b = run_simulation(cfg(path_kw={"loss_prob": 0.02}, seed=8, log_events=True))
    assert a.event_log != b.event_log


def test_conservation_and_counters_line_up():
    sim = Simulation(cfg(scheme="cubic", duration_s=10.0, log_events=True))
    res = sim.run()
    assert sim.link.conservation_ok()
    assert res.queue_drops > 0                      # cubic overfills droptail
    n_deq = sum(1 for row in res.event_log if row[1] == "deq")
    n_dlv = sum(1 for row in res.event_log if row[1] == "dlv")
    n_air = sum(1 for row in res.event_log if row[1] == "airdrop")
    assert n_deq == n_dlv + n_air
    assert len(res.qdelay_samples_us) == n_deq      # sampled at every dequeue
    n_enq = sum(1 for row in res.event_log if row[1] == "enq")
    n_tail = sum(1 for row in res.event_log if row[1] == "drop")
    n_snd = sum(1 for row in res.event_log if row[1] == "snd")
    assert n_snd >= n_enq + n_tail                  # in-flight at cutoff
    delivered = sum(f.delivered_bytes for f in res.flows)
    assert delivered == n_dlv * 1500


@st.composite
def small_runs(draw):
    """Small valid run settings: every scheme and feedback mode, loss, queues
    down to one packet, and 1-6 staggered flows over up to 4 UEs."""
    n = draw(st.integers(1, 6))
    starts = draw(st.lists(st.integers(0, 90), min_size=n, max_size=n))
    ues = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return {
        "scheme": draw(st.sampled_from(SCHEMES)),
        "assist.mode": draw(st.sampled_from(("oob", "ib"))),
        "trace": draw(st.sampled_from(("const:12mbps", "step:24mbps@200ms,6mbps@200ms",
                                       "walk:4mbps-24mbps@100ms"))),
        "path.loss_prob": draw(st.sampled_from(("0", "0.01", "0.05"))),
        "queue.capacity_bytes": draw(st.sampled_from(("1500", "150000"))),
        "seed": str(draw(st.integers(1, 1000))),
        "duration_s": "1",
        "flows.start_s": ",".join(f"{t / 100}" for t in starts),
        "flows.ue": ",".join(map(str, ues)),
    }


@settings(max_examples=60, derandomize=True, deadline=None)
@given(small_runs())
def test_valid_small_runs_finish_within_capacity_and_replay(run_settings):
    sim = Simulation(build_config(None, run_settings))
    res = sim.run()
    assert sim.link.conservation_ok()
    capacity = sim.schedule.capacity_bits(0, res.duration_us + 1)
    assert sum(f.unique_bytes for f in res.flows) * 8 <= capacity
    again = run_simulation(build_config(None, run_settings))
    assert again.summary_row() == res.summary_row()
    assert again.feedback_log == res.feedback_log
    assert [f.deliveries for f in again.flows] == [f.deliveries for f in res.flows]


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    """A 700 ms trace file: bursts of opportunities between outages."""
    rng = random.Random(23)
    stamps = sorted(rng.choice((0, 100, 400)) + rng.randrange(300) for _ in range(900))
    path = tmp_path_factory.mktemp("trace") / "bursty.trace"
    path.write_text("".join(f"{t}\n" for t in stamps))
    return str(path)


@st.composite
def crowded_runs(draw, trace_file):
    """Up to 16 flows over up to 8 UEs on every trace kind, queues of 1 to
    100 packets, loss and both feedback modes."""
    n = draw(st.integers(1, 16))
    ues = draw(st.integers(1, 8))
    return {
        "scheme": draw(st.sampled_from(SCHEMES)),
        "assist.mode": draw(st.sampled_from(("oob", "ib"))),
        "trace": draw(st.sampled_from(("walk:1mbps-24mbps@20ms", "const:48mbps",
                                       "step:24mbps@50ms,2mbps@30ms",
                                       trace_file, "const:12mbps"))),
        "path.loss_prob": draw(st.sampled_from(("0", "0.01", "0.05"))),
        "queue.capacity_bytes": draw(st.sampled_from(("150000", "15000", "3000",
                                                      "1500"))),
        "seed": str(draw(st.integers(1, 1000))),
        # the shorter run ends between two opportunities of every trace
        "duration_s": draw(st.sampled_from(("1", "0.9337"))),
        "assist.period_us": "20000",
        "flows.start_s": ",".join(f"{t / 100}" for t in draw(
            st.lists(st.integers(0, 50), min_size=n, max_size=n))),
        "flows.ue": ",".join(map(str, draw(
            st.lists(st.integers(0, ues - 1), min_size=n, max_size=n)))),
    }


def test_the_lazy_and_the_logged_path_give_the_same_run(trace_file):
    # with the log on, every arrival at the BTS goes through the heap; with
    # it off, services admit most of them.  Summary rows alone would miss an
    # arrival never admitted at the end: it moves mostly queue state
    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(crowded_runs(trace_file))
    def check(run_settings):
        seen = []
        for events in ("on", "off"):
            sim = Simulation(build_config(None, {**run_settings, "log.events": events}))
            res = sim.run()
            link = sim.link
            seen.append((
                res.summary_row(), [vars(f) for f in res.flows],
                res.qdelay_samples_us, res.feedback_log, link.drops_by_flow,
                [(q.enqueued_bytes, q.occupancy, q.drop_count)
                 for q in link.queues.values()],
            ))
        assert seen[0] == seen[1]

    check()


def test_link_is_the_one_writer_of_the_event_log():
    # every row kind, in-band digests riding data to two UEs, air loss
    sim = Simulation(cfg(duration_s=2.0, log_events=True,
                         queue_capacity_bytes=15_000,
                         path_kw={"loss_prob": 0.01},
                         assist=NetAssistConfig(mode="ib"),
                         flow_starts_s=(0.0, 0.0), flow_ues=(0, 1)))
    sink = sim.link._log
    assert sink == sim.events.frombytes
    passed = []

    def wrapped(row):
        sink(row)
        passed.append(row)

    sim.link._log = wrapped
    res = sim.run()
    assert b"".join(chunk.tobytes() for chunk in res.event_chunks()) == b"".join(passed)
    assert {row[1] for row in res.event_log} == {
        "snd", "enq", "drop", "deq", "airdrop", "dlv", "ack"}


def test_receivers_keep_their_own_deliveries():
    sim = Simulation(cfg(duration_s=1.0, path_kw={"loss_prob": 0.02},
                         flow_starts_s=(0.0, 0.0, 0.0), flow_ues=(0, 1, 0)))
    res = sim.run()
    for fs in res.flows:
        recv = sim.receivers[fs.ue_id]
        assert fs.deliveries is recv.deliveries[fs.flow_id]
        # one MTU per entry; a duplicate is stored as a negative time
        assert len(fs.deliveries) * res.mtu == fs.delivered_bytes
        assert sum(1 for t in fs.deliveries
                   if t >= 0) * res.mtu == fs.unique_bytes


def test_departures_need_a_recorded_log():
    res = run_simulation(cfg(duration_s=1.0))
    assert res.event_log == []
    with pytest.raises(ValueError, match="log.events"):
        res.departures()
    logged = run_simulation(cfg(duration_s=1.0, log_events=True))
    departures = logged.departures()
    assert [q for *_, q in departures] == list(logged.qdelay_samples_us)


def test_event_log_row_is_five_int64s():
    # every row kind but drop, with air loss; 40 bytes a row, not a tuple
    res = run_simulation(cfg(duration_s=1.0, log_events=True,
                             path_kw={"loss_prob": 0.02}))
    log = res.event_log
    chunks = list(res.event_chunks())
    assert all(chunk.typecode == "q" and chunk.itemsize == 8 for chunk in chunks)
    assert sum(map(len, chunks)) == 5 * len(log)
    assert os.fstat(res.events.fileno()).st_size == 40 * len(log)
    assert {row[1] for row in log} >= {"snd", "enq", "deq", "airdrop", "dlv", "ack"}
    assert res.departures() == [(t, fl, seq, q) for t, kind, fl, seq, q in log
                                if kind == "deq"]
    # decoded anew on every read
    assert res.event_log == log and res.event_log is not log
    unlogged = run_simulation(cfg(duration_s=1.0))
    assert unlogged.events is None and list(unlogged.event_chunks()) == []


def test_spool_readers_keep_their_own_offsets(monkeypatch):
    monkeypatch.setattr(engine, "EVENT_CHUNK_ROWS", 100)
    res = run_simulation(cfg(duration_s=1.0, log_events=True))
    whole = b"".join(chunk.tobytes() for chunk in res.event_chunks())
    a, b = res.event_chunks(), res.event_chunks()
    interleaved = [next(a), next(b), next(b), next(a)]
    assert [len(chunk) for chunk in interleaved] == [500] * 4
    assert interleaved[0] == interleaved[1] and interleaved[2] == interleaved[3]
    assert b"".join(chunk.tobytes() for chunk in (*interleaved[1:3], *b)) == whole
    res.close()
    assert res.events.closed


def run_sliced(monkeypatch, slice_us, settings):
    """One logged run with ``LOG_SLICE_US`` set to ``slice_us``: its result,
    its events processed and the rows buffered at each drain to the spool."""
    monkeypatch.setattr(engine, "LOG_SLICE_US", slice_us)
    sim = Simulation(build_config(None, {**settings, "log.events": "on"}))
    spool_rows = sim._spool_rows
    drains = []

    def counted(spool):
        drains.append(len(sim.events))
        spool_rows(spool)

    sim._spool_rows = counted
    res = sim.run()
    return res, sim.loop.processed, drains


def test_the_slice_length_changes_no_output(monkeypatch):
    # lossy, two UEs, in band, a second flow that starts late; the slice
    # bounds the rows held, never what the run does
    settings = {"trace": "walk:1mbps-24mbps@100ms", "duration_s": "2.5",
                "seed": "5", "path.loss_prob": "0.01", "assist.mode": "ib",
                "flows.start_s": "0,1.2", "flows.ue": "0,1"}
    runs = [run_sliced(monkeypatch, slice_us, settings) for slice_us in (1, 10 ** 12)]
    (fine, processed, drains), (coarse, _, one_slice) = runs
    assert fine.event_log and fine.event_log == coarse.event_log
    assert fine.feedback_log == coarse.feedback_log
    assert fine.summary_row() == coarse.summary_row()
    assert [vars(f) for f in fine.flows] == [vars(f) for f in coarse.flows]
    # each 1 us slice runs at least one event; the last drain follows the
    # end-of-run admission
    assert len(drains) <= processed + 1
    assert max(drains) < sum(drains) and len(one_slice) == 2


def test_a_logged_run_holds_one_slice_of_rows():
    sim = Simulation(cfg(trace="const:24mbps", duration_s=10.0, log_events=True))
    tracemalloc.start()
    try:
        res = sim.run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    spooled = os.fstat(res.events.fileno()).st_size
    assert spooled > 2_000_000   # 40 bytes a row, about five rows a packet
    assert peak < spooled / 4
    res.close()


def test_feedback_log_and_fb_count():
    res = run_simulation(cfg(duration_s=2.0))
    # 50 ms cadence, 2 s run; the 2 s emission arrives past the horizon
    assert res.flows[0].fb_count == 39
    assert len(res.feedback_log) == 39
    flow, seq, t_emit, t_arr, bl_bw, min_rtt = res.feedback_log[0]
    assert (flow, seq, t_emit, t_arr) == (0, 1, 50_000, 52_000)
    assert bl_bw == pytest.approx(12e6)
    assert min_rtt == 6_043


def test_in_band_feedback_rides_data_acks():
    res = run_simulation(cfg(duration_s=2.0, assist=NetAssistConfig(mode="ib")))
    assert res.flows[0].fb_count > 0
    assert res.overhead_kbps == 0.0
    # in-band arrival = dequeue wait + uplink, never the out-of-band 2 ms
    latencies = {t_arr - t_emit for (_, _, t_emit, t_arr, _, _) in res.feedback_log}
    assert min(latencies) > 2_000


def test_flow_start_offsets_respected():
    res = run_simulation(cfg(flow_starts_s=(0.0, 2.0), flow_ues=(0, 0),
                             log_events=True))
    first_snd = {f: None for f in (0, 1)}
    for t, kind, flow, _seq, _q in res.event_log:
        if kind == "snd" and first_snd[flow] is None:
            first_snd[flow] = t
    assert first_snd[0] == 0
    assert first_snd[1] == 2_000_000


@pytest.mark.parametrize("settings, first_emit_us", [
    ({"assist.period_us": "1000"}, 5_000),
    ({"path.down_owd_us": "40000"}, 100_000),
    ({"assist.period_us": "4000", "assist.mode": "ib"}, 8_000),
])
def test_periods_before_the_first_probe_returns_emit_nothing(settings, first_emit_us):
    res = run_simulation(build_config(None, {"duration_s": "1", **settings}))
    _, seq, t_emit, t_arr, _, _ = res.feedback_log[0]
    assert (seq, t_emit) == (1, first_emit_us)
    # the flow stays on its fallback until the first digest arrives
    assert res.flows[0].mode_log[:2] == [(0, "fallback"), (t_arr, "assisted")]


def test_watchdog_reverts_after_three_silent_periods():
    res = run_simulation(cfg(
        duration_s=4.0,
        assist=NetAssistConfig(suppress_after_us=2_000_000),
    ))
    log = res.flows[0].mode_log
    assert log[0] == (0, "fallback")
    assert log[1][1] == "assisted"
    # last feedback was emitted at 1.95 s and arrived 2 ms later; the third
    # silent 50 ms period ends 150 ms after that arrival
    assert log[2] == (2_102_000, "fallback")


def test_one_pending_watchdog_check_per_flow():
    sim = Simulation(cfg(
        duration_s=3.0, assist=NetAssistConfig(period_us=20_000, mode="ib"),
        flow_starts_s=tuple(0.1 * i for i in range(8)),
        flow_ues=(0, 1, 2, 3) * 2,
    ))
    run_until = sim.loop.run_until
    most = 0

    def stepped(t_end_us):
        nonlocal most
        for t in range(0, t_end_us + 1, 1_000):
            run_until(t)
            pending = [args[0] for (_, _, fn, args) in sim.loop._heap
                       if getattr(fn, "__name__", "") == "_watchdog_check"]
            assert len(pending) == len(set(pending))
            most = max(most, len(pending))

    sim.loop.run_until = stepped
    res = sim.run()
    assert most == 8  # every flow had a check pending at once
    reverts = sum(mode == "fallback" for f in res.flows for _, mode in f.mode_log[1:])
    assert reverts > 0  # and checks did fire live


def test_one_pending_watchdog_check_per_out_of_band_stream():
    sim = Simulation(cfg(
        duration_s=3.0,
        assist=NetAssistConfig(period_us=20_000, suppress_after_us=2_000_000),
        flow_starts_s=tuple(0.1 * i for i in range(8)),
        flow_ues=(0, 1, 2, 3) * 2,
    ))
    run_until = sim.loop.run_until
    most = 0

    def stepped(t_end_us):
        nonlocal most
        for t in range(0, t_end_us + 1, 1_000):
            run_until(t)
            pending = [fn for (_, _, fn, _) in sim.loop._heap
                       if getattr(fn, "__name__", "") == "_watchdog_check"]
            most = max(most, len(pending))

    sim.loop.run_until = stepped
    res = sim.run()
    assert most == 1  # one check for the whole stream, not one per flow
    # feedback stops at 2 s, and every flow still falls back
    assert [f.mode_log[-1][1] for f in res.flows] == ["fallback"] * 8


def test_each_revert_runs_at_the_key_reserved_for_its_flow(monkeypatch):
    sim = Simulation(cfg(
        duration_s=3.0,
        assist=NetAssistConfig(period_us=20_000, suppress_after_us=2_000_000),
        flow_starts_s=tuple(0.1 * i for i in range(6)),
        flow_ues=(0, 1, 2) * 2,
    ))
    watchdog_us = WATCHDOG_PERIODS * 20_000
    applying = []        # (flow, now) of the digest being applied
    reserved = {}        # flow -> (deadline, tick) of its last applied digest
    handling = [None]    # key of the event being handled
    reverted = []

    reserve = sim.loop.reserve

    def tracked_reserve():
        # the first tick reserved after a flow's on_feedback is its revert key
        tick = reserve()
        if applying:
            flow_id, now = applying.pop()
            reserved[flow_id] = (now + watchdog_us, tick)
        return tick

    def tracked_pop(heap):
        event = heappop(heap)
        handling[0] = event[:2]
        return event

    sim.loop.reserve = tracked_reserve
    monkeypatch.setattr(engine, "heappop", tracked_pop)
    for fid, snd in sim.senders.items():
        def on_feedback(now, msg, fid=fid, on_feedback=snd.controller.on_feedback):
            applying.append((fid, now))
            return on_feedback(now, msg)
        snd.controller.on_feedback = on_feedback
        def revert(now, fid=fid, revert=snd.controller.revert):
            assert handling[0] == reserved[fid]
            reverted.append(fid)
            revert(now)
        snd.controller.revert = revert
    sim.run()
    assert sorted(reverted) == list(range(6))


@pytest.mark.parametrize("trace,duration_s", [("const:12mbps", 5.0),
                                               ("const:1gbps", 0.2)])
def test_heap_holds_only_pending_work(trace, duration_s):
    # one emit, one head per link leg, the drain and per-flow timers: the
    # depth does not grow with the run's periods or packets in flight
    sim = Simulation(cfg(trace=trace, duration_s=duration_s))
    run_until = sim.loop.run_until
    depths, emits = [], set()

    def stepped(t_end_us):
        for t in range(0, t_end_us + 1, 1_000):
            run_until(t)
            heap = sim.loop._heap
            depths.append(len(heap))
            if t < t_end_us:  # the last emit runs at the duration itself
                emits.add(sum(getattr(fn, "__name__", "") == "_emit_feedback"
                              for (_, _, fn, _) in heap))

    sim.loop.run_until = stepped
    res = sim.run()
    assert max(depths) <= 8
    assert emits == {1}
    assert len(res.feedback_log) == int(duration_s * 1e6) // 50_000 - 1


def test_one_out_of_band_arrival_per_period_reaches_every_started_flow():
    # 16 flows on 8 UEs, listed out of UE order, starting on odd
    # microseconds so no start ties with a feedback arrival
    sim = Simulation(cfg(
        duration_s=1.0, assist=NetAssistConfig(period_us=20_000),
        flow_starts_s=tuple(0.0371 * i + 1e-6 for i in range(16)),
        flow_ues=(5, 2, 7, 0, 3, 6, 1, 4) * 2,
    ))
    arrivals = []
    oob_arrive = sim._oob_arrive

    def counted(now, msg):
        arrivals.append((now, msg.seq))
        oob_arrive(now, msg)

    sim._oob_arrive = counted
    res = sim.run()
    # emitted every 20 ms, arriving 2 ms later; the 1 s digest lands past the end
    assert arrivals == [(20_000 * k + 2_000, k) for k in range(1, 50)]
    assert sim.assist.emitted_count == 50 * 8
    specs = sim.cfg.flows()
    in_ue_order = [f for ue in (5, 2, 7, 0, 3, 6, 1, 4) for f in specs if f.ue_id == ue]
    for t_arr, seq in arrivals:
        rows = [row for row in res.feedback_log if row[1] == seq]
        assert {row[3] for row in rows} == {t_arr}
        assert [row[0] for row in rows] == [
            f.flow_id for f in in_ue_order if f.start_us < t_arr]


def test_feedback_log_is_one_packed_row_per_arrival_decoded_on_every_read():
    res = run_simulation(cfg(duration_s=1.0, flow_starts_s=(0.0, 0.0),
                             flow_ues=(0, 1)))
    log = res.feedback_log
    assert isinstance(log, list) and log
    assert res.feedback_log == log and res.feedback_log is not log
    # one 40-byte row per arrival, decoded into one tuple per flow
    assert res.feedback.typecode == "q"
    assert len(res.feedback) == 5 * len(res.feedback_fids)
    assert res.feedback_fids == [(0, 1)] * len(res.feedback_fids)
    assert len(log) == 2 * len(res.feedback_fids)


def test_a_flow_starting_at_an_arrival_instant_receives_that_digest():
    # emitted at 150 ms, the digest arrives at 152 ms, when flow 0 starts;
    # the start was scheduled before the run, so its tick runs first
    res = run_simulation(cfg(duration_s=0.5, flow_starts_s=(0.152, 0.0),
                             flow_ues=(0, 1)))
    arrivals = [t_arr for t_arr, *_ in engine.FEEDBACK_ROW.iter_unpack(res.feedback)]
    assert 152_000 in arrivals
    at = arrivals.index(152_000)
    assert res.feedback_fids[at - 1] == (1,)
    # UE rank order: flow 0's UE 0 ranks first
    assert res.feedback_fids[at] == (0, 1)
    # rebuilt once after the start, then shared by every later arrival
    assert all(fids is res.feedback_fids[at] for fids in res.feedback_fids[at:])
    assert res.flows[0].fb_count == len(arrivals) - at
    assert [row[0] for row in res.feedback_log if row[3] == 152_000] == [0, 1]


@pytest.mark.parametrize("mode", ["oob", "ib"])
def test_feedback_log_rows_equal_the_digests_each_flow_applied(mode):
    # the unpacked form: one (flow, seq, t_emitted, t_arrived, bl_bw, min_rtt)
    # per digest a controller receives, in the order received
    sim = Simulation(cfg(duration_s=2.0, assist=NetAssistConfig(mode=mode),
                         flow_starts_s=(0.0, 0.3, 0.7), flow_ues=(2, 0, 2)))
    applied = []
    for fid, snd in sim.senders.items():
        def on_feedback(now, msg, fid=fid, apply=snd.controller.on_feedback):
            applied.append((fid, msg.seq, msg.t_emitted, now, msg.bl_bw, msg.min_rtt))
            apply(now, msg)
        snd.controller.on_feedback = on_feedback
    res = sim.run()
    assert res.feedback_log == applied
    # the capacity reads back as the very float the digest carried
    assert all(type(row[4]) is float for row in res.feedback_log)
    assert len(res.feedback) == 5 * len(res.feedback_fids)
    if mode == "ib":  # one (fid,) per flow, built at wiring
        assert len({id(fids) for fids in res.feedback_fids}) == 3


def test_the_largest_valid_hol_ceiling_packs_into_a_feedback_row():
    # an outage keeps the capacity at 0, so the min-RTT takes the whole ceiling
    settings = {"trace": "step:0mbps@500ms,12mbps@400ms,0mbps@100ms",
                "duration_s": "2"}
    with pytest.raises(ConfigError, match=r"assist\.part2_ceiling_us"):
        run_simulation(build_config(
            None, {**settings, "assist.part2_ceiling_us": str(2**63)}))
    c = build_config(None, {**settings,
                            "assist.part2_ceiling_us": "1000000000000000"})
    res = run_simulation(c)
    outage = [row for row in res.feedback_log if row[4] == 0.0]
    assert outage
    assert {row[5] for row in outage} == {
        10**15 + 2 * c.path.down_owd_us + c.path.serialization_us(c.assist.feedback_size)}


def crowd_settings(seed, duration_s):
    """64 UEs x 4 nacubic flows at 48 Mbit/s, with the flow starts drawn
    from the seed as perfbench/workloads.py draws crowd's."""
    rng = random.Random(seed)
    starts = ",".join(f"{rng.randrange(1_000_000) / 1e6:.6f}" for _ in range(256))
    return {"scheme": "nacubic", "trace": "const:48mbps",
            "duration_s": str(duration_s), "seed": str(seed),
            "assist.period_us": "20000", "flows.start_s": starts,
            "flows.ue": ",".join(str(i // 4) for i in range(256))}


def test_an_unmoved_flow_due_at_the_arrival_sends_from_the_fan_out():
    # a digest that moves no decision still lets a flow whose pacer releases
    # at the arrival instant send there, ahead of its own pacer event
    sim = Simulation(build_config(None, crowd_settings(1, 1)))
    unmoved = []
    for fid, snd in sim.senders.items():
        def on_feedback(now, msg, fid=fid, ctl=snd.controller,
                        on_feedback=snd.controller.on_feedback):
            decision = (ctl.cwnd, ctl.pacing_bps)
            on_feedback(now, msg)
            if (ctl.cwnd, ctl.pacing_bps) == decision:
                unmoved.append(fid)
        snd.controller.on_feedback = on_feedback
    oob_arrive = sim._oob_arrive
    due = []

    def tracked(now, msg):
        before = {fid: (snd.sent_segments, snd.controller.gap_us is not None
                        and snd._next_allowed_us <= now
                        and snd.in_flight + snd.mtu <= snd.controller.cwnd)
                  for fid, snd in sim.senders.items()}
        unmoved.clear()
        oob_arrive(now, msg)
        for fid in unmoved:
            sent, released = before[fid]
            if released:
                due.append((now, fid))
                assert sim.senders[fid].sent_segments > sent

    sim._oob_arrive = tracked
    sim.run()
    assert due == [(562_000, 152), (682_000, 82), (782_000, 169), (802_000, 241)]


def test_in_band_digest_staged_on_every_ue():
    sim = Simulation(cfg(assist=NetAssistConfig(mode="ib"),
                         flow_starts_s=(0.0,) * 8, flow_ues=tuple(range(8))))
    sim._emit_feedback(50_000)
    staged = [sim.link.queues[ue].staged for ue in range(8)]
    digest = staged[0]
    assert (digest.seq, digest.t_emitted) == (1, 50_000)
    assert all(msg is digest for msg in staged)


@pytest.mark.parametrize("trace", ["step:0mbps@500ms", "const:0.3bps"])
def test_unusable_schedule_rejected_at_set_up(trace):
    with pytest.raises(TraceError, match="no delivery opportunity"):
        Simulation(cfg(trace=trace, duration_s=2.0))


def test_multi_ue_round_robin_split():
    res = run_simulation(cfg(duration_s=4.0,
                             flow_starts_s=(0.0, 0.0), flow_ues=(0, 1)))
    g0 = res.flow_goodput_mbps(0)
    g1 = res.flow_goodput_mbps(1)
    assert g0 == pytest.approx(6.0, rel=0.05)
    assert g1 == pytest.approx(6.0, rel=0.05)


@pytest.mark.parametrize("flow_id", [-1, -2, 2])
def test_goodput_of_a_flow_outside_the_run_is_refused(flow_id):
    # a negative index would otherwise read a flow from the end of the list
    res = run_simulation(cfg(duration_s=0.5,
                             flow_starts_s=(0.0, 0.0), flow_ues=(0, 1)))
    with pytest.raises(ValueError, match=f"no flow {flow_id}"):
        res.flow_goodput_mbps(flow_id)


def test_summary_row_schema():
    res = run_simulation(cfg(duration_s=2.0))
    row = res.summary_row()
    assert list(row) == [
        "scheme", "trace", "duration_s", "throughput_mbps", "goodput_mbps",
        "avg_qdelay_ms", "p95_qdelay_ms", "power", "power95", "retrans",
        "drops", "feedback_overhead_kbps",
    ]
    assert row["scheme"] == "natcp"
    assert row["feedback_overhead_kbps"] == pytest.approx(10.24)


def test_goodput_window_helper():
    res = run_simulation(cfg(duration_s=2.0))
    full = res.flow_goodput_mbps(0)
    tail = res.flow_goodput_mbps(0, 1_000_000, 2_000_000)
    assert tail == pytest.approx(12.0, rel=0.05)    # steady state after ramp
    assert 0 < full <= tail
    with pytest.raises(ValueError):
        res.flow_goodput_mbps(0, 5, 5)
    # a window reaching below 0 would count duplicates, stored as ~t < 0
    with pytest.raises(ValueError, match="at or after 0"):
        res.flow_goodput_mbps(0, -1, 1_000_000)


def test_lossy_deliveries_keep_eight_bytes_per_arriving_packet():
    # cubic fills a deep queue under air loss, and a timeout resends a
    # segment whose first copy is still queued: both copies arrive
    res = run_simulation(cfg(scheme="cubic", duration_s=2.0,
                             queue_capacity_bytes=300_000,
                             path_kw={"loss_prob": 0.01},
                             flow_starts_s=(0.0, 0.0, 0.5), flow_ues=(0, 1, 0)))
    assert any(t < 0 for fs in res.flows for t in fs.deliveries)
    for fs in res.flows:
        assert fs.deliveries.itemsize == 8
        assert len(fs.deliveries) == fs.delivered_bytes // res.mtu
        assert (res.flow_goodput_mbps(fs.flow_id, 0, res.duration_us)
                == fs.unique_bytes * 8 / res.duration_us)


@pytest.mark.parametrize("settings,d", [
    # no probe completes, so a scan back from now would read every probe
    # fired since t = 0; d holds five digests at the default 50 ms period
    ({"path.down_owd_us": "1000000000", "assist.probe_interval_us": "1"}, 0.25),
    # a digest every microsecond; the first ~5 ms, before any feedback
    # reaches a sender, are cheaper, so a shorter d reads above 2.2
    ({"assist.period_us": "1"}, 0.02),
    ({"flows.start_s": ",".join(["0"] * 256)}, 0.5),
], ids=["probe-pair", "period-1us", "256-flows"])
def test_python_calls_grow_no_faster_than_the_run(settings, d):
    def calls(duration_s):
        sim = Simulation(build_config(None, {**settings, "duration_s": str(duration_s)}))
        n = 0

        def count(frame, event, arg):
            nonlocal n
            n += 1      # returns None: no local tracer, so no other events

        # a global trace function sees the "call" events sys.setprofile
        # does, and nothing else, so it counts them at a third of the cost
        sys.settrace(count)
        try:
            sim.run()
        finally:
            sys.settrace(None)
        return n

    short, long = calls(d), calls(2 * d)
    assert long <= 2.2 * short, (short, long)
