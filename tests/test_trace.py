"""Delivery-schedule parsing, replay arithmetic, and synthetic generators."""

import math
import os
import random
import sys
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from natsim import config, trace
from natsim.config import SimConfig, build_config, resolve_schedule
from natsim.engine import Simulation
from natsim.trace import (
    US_PER_MS,
    SegmentSchedule,
    TraceError,
    TraceSchedule,
    _spaced,
    avg_rate,
    is_trace_expression,
    parse_rate,
    parse_trace,
    schedule_from_spec,
    synth_constant,
    synth_step,
    synth_walk,
)

MTU_BITS = 1500 * 8


# -- parsing ---------------------------------------------------------------

def test_parse_basic_trace():
    sched = parse_trace("10\n20\n30\n")
    assert [sched.instant(i) for i in range(3)] == [0, 10_000, 20_000]
    assert sched.count_in(0, 30_001) == 4   # the last stamp is the next t = 0
    assert sched.cycle_us == 30_000
    assert sched.mtu == 1500


def test_parse_skips_blanks_and_comments():
    sched = parse_trace("# header\n\n5\n # note\n7\n")
    assert sched.cycle_us == 7_000
    assert [sched.instant(i) for i in range(4)] == [0, 5_000, 7_000, 12_000]


def test_parse_avg_rate_example():
    # Three opportunities over a 30 ms cycle: 3 * 12000 bits / 30 ms.
    sched = parse_trace("10\n20\n30\n")
    assert avg_rate(sched, window_ms=30) == pytest.approx(1_200_000.0)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(TraceError, match="line 2.*not an integer"):
        parse_trace("10\nbogus\n")
    with pytest.raises(TraceError, match="line 1.*negative"):
        parse_trace("-3\n")
    with pytest.raises(TraceError, match="line 3.*decreases"):
        parse_trace("10\n20\n15\n")


def test_parse_empty_trace_rejected():
    with pytest.raises(TraceError, match="empty trace"):
        parse_trace("# only comments\n\n")


def test_parse_zero_cycle_needs_explicit_length():
    # the cycle is the last timestamp, and no option sets another
    with pytest.raises(TraceError, match="zero-length cycle: the last timestamp"):
        parse_trace("0\n0\n")


def reference_parse_trace(text, mtu=1500):
    """``parse_trace`` as one loop over the lines: the reference that the
    bulk parse must match, result for result and message for message."""
    stamps_ms = []
    prev = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            value = int(line)
        except ValueError:
            raise TraceError(f"line {lineno}: {line!r} is not an integer timestamp") from None
        if value < 0:
            raise TraceError(f"line {lineno}: negative timestamp {value}")
        if value < prev:
            raise TraceError(f"line {lineno}: timestamp {value} decreases (previous {prev})")
        stamps_ms.append(value)
        prev = value
    if not stamps_ms:
        raise TraceError("empty trace: no timestamps found")
    if prev == 0:
        raise TraceError("zero-length cycle: the last timestamp, the cycle length, is 0")
    return TraceSchedule(
        opportunities_us=tuple(t * US_PER_MS for t in stamps_ms),
        cycle_us=prev * US_PER_MS,
        mtu=mtu,
    )


def outcome(parse, text, mtu):
    try:
        sched = parse(text, mtu)
    except TraceError as exc:
        return "error", str(exc)
    return "schedule", (sched.opportunities_us, sched.cycle_us, sched.mtu, sched.phase)


# pieces int() and str.splitlines() each treat in their own way: signs,
# digit separators, whitespace, "\x1c" (a line break to splitlines and
# whitespace to int) and letters
TRACE_PIECES = [*"0123456789", "#", " ", "\t", "\n", "\r\n", "\x1c", "-", "+", "_",
                *"aeEx"]


@st.composite
def trace_texts(draw):
    """Noise from TRACE_PIECES, or (two times in three) non-decreasing stamps
    in the forms int() takes or not, between comments, blank lines and any
    line break."""
    if draw(st.integers(0, 2)) == 0:
        return "".join(draw(st.lists(st.sampled_from(TRACE_PIECES), max_size=40)))
    stamps = sorted(draw(st.lists(st.integers(0, 200), max_size=12)))
    forms = st.sampled_from(["{}", "+{}", "0{}", " {}\t", "\x1c{}", "{}_0", "-{}", "{0} {0}"])
    breaks = st.sampled_from(["\n", "\r\n", "\r", "\x1c"])
    lines = [draw(forms).format(t) for t in stamps]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "# c", "  "])))
    ends = [draw(breaks) for _ in lines]
    if ends and draw(st.booleans()):
        ends[-1] = ""       # no line break after the last line
    return "".join(map(str.__add__, lines, ends))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(trace_texts(), st.sampled_from([1500, 0]))
@example("+5\n", 1500)
@example("1_000\n", 1500)
@example("007\n", 1500)
@example("1 2\n5\n", 1500)
@example("3\n5", 1500)                  # no newline after the last line
@example("1\n4\n2\n9\n", 1500)          # a decrease mid-file
@example("1\n4\n0", 1500)               # a final 0
@example("0\n0\n", 1500)
@example("1\n" + "9" * 4301 + "\n", 1500)  # past int()'s digit limit
@example("", 1500)
@example("5\n\n6\n", 1500)
def test_parse_trace_matches_the_line_loop(text, mtu):
    assert outcome(parse_trace, text, mtu) == outcome(reference_parse_trace, text, mtu)


def test_parse_trace_runs_no_python_line_per_timestamp():
    # 40,000 stamps, as a 60 s cellular trace holds; a loop over the lines
    # runs over half a million Python lines, the bulk parse a few dozen
    text = "".join(f"{i // 2 + 1}\n" for i in range(40_000))
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return local

    sys.settrace(lambda frame, event, arg: local)
    try:
        sched = parse_trace(text)
    finally:
        sys.settrace(None)
    assert sched.cycle_us == 20_000_000
    assert lines <= 1_000, lines


# -- the parse cache ---------------------------------------------------------

parse_once = config._parse_trace_once


def write_trace(path, text):
    path.write_text(text)
    return str(path)


def file_settings(path, **overrides):
    return {"scheme": "natcp", "trace": path, "duration_s": "1", "seed": "1", **overrides}


def test_one_trace_file_is_parsed_once_for_many_simulations(tmp_path):
    path = write_trace(tmp_path / "t.trace", "".join(f"{i // 3 + 1}\n" for i in range(3000)))
    parse_once.cache_clear()
    sims = [Simulation(build_config(None, file_settings(path, scheme=scheme)))
            for scheme in ("natcp", "nacubic", "tg")]
    info = parse_once.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    assert sims[0].schedule is sims[1].schedule is sims[2].schedule


def test_parse_trace_itself_keeps_nothing():
    text = "10\n20\n30\n"
    assert parse_trace(text) == parse_trace(text)
    assert parse_trace(text) is not parse_trace(text)


def test_a_file_rewritten_in_place_gives_its_new_schedule(tmp_path):
    # the same length and mtime: only the content tells the two files apart
    path = write_trace(tmp_path / "t.trace", "10\n20\n30\n")
    stat = os.stat(path)
    first = resolve_schedule(SimConfig(trace=path))
    write_trace(tmp_path / "t.trace", "10\n25\n30\n")
    os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
    assert os.stat(path).st_mtime_ns == stat.st_mtime_ns
    assert os.stat(path).st_size == stat.st_size
    second = resolve_schedule(SimConfig(trace=path))
    assert first.opportunities_us == (0, 10_000, 20_000)
    assert second.opportunities_us == (0, 10_000, 25_000)


def test_the_same_text_at_two_mtus_gives_each_its_mtu(tmp_path):
    path = write_trace(tmp_path / "t.trace", "10\n20\n30\n")
    for mtu in (1500, 1000, 1500, 1000):
        assert resolve_schedule(SimConfig(trace=path, mtu=mtu)).mtu == mtu


def test_a_malformed_file_raises_on_every_build(tmp_path):
    path = write_trace(tmp_path / "bad.trace", "10\nbogus\n")
    for _ in range(2):
        with pytest.raises(TraceError, match="line 2"):
            resolve_schedule(SimConfig(trace=path))


def test_a_run_on_the_cached_schedule_matches_a_run_on_a_fresh_parse(tmp_path):
    rng = random.Random(1)
    stamps = sorted(rng.randrange(1, 2001) for _ in range(3000))   # 2 s, 18 Mbit/s
    path = write_trace(tmp_path / "rand.trace", "".join(f"{t}\n" for t in stamps))
    settings = file_settings(path, **{"path.loss_prob": "0.001", "log.events": "on"})

    def run():
        res = Simulation(build_config(None, settings)).run()
        try:
            return res.summary_row(), res.flows, res.event_log
        finally:
            res.close()
    parse_once.cache_clear()
    fresh = run()
    cached = run()
    info = parse_once.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert cached == fresh
    assert fresh[2]     # the log is on: the comparison covers its rows


# -- replay arithmetic -------------------------------------------------------

def test_boundary_timestamp_wraps_to_cycle_start():
    # "30" in a 30 ms cycle is the same instant as "0" of the next cycle,
    # so every 30 ms window holds exactly three opportunities.
    sched = parse_trace("10\n20\n30\n")
    assert sched.count_in(0, 30_000) == 3
    assert sched.count_in(30_000, 60_000) == 3
    assert sched.count_in(5_000, 35_000) == 3


def test_instant_enumerates_cyclically():
    sched = parse_trace("10\n20\n30\n")  # locals: 0, 10, 20 ms
    assert [sched.instant(i) for i in range(7)] == [
        0, 10_000, 20_000, 30_000, 40_000, 50_000, 60_000]


def test_index_at_or_after():
    sched = parse_trace("10\n20\n30\n")
    assert sched.index_at_or_after(0) == 0
    assert sched.index_at_or_after(10_000) == 1
    assert sched.index_at_or_after(10_001) == 2
    assert sched.index_at_or_after(59_999) == 6
    # round trip: instant(index_at_or_after(t)) >= t
    for t in range(0, 100_000, 1_371):
        assert sched.instant(sched.index_at_or_after(t)) >= t


def test_count_in_matches_brute_force():
    sched = parse_trace("1\n4\n4\n9\n10\n")
    rng = random.Random(7)
    instants = [sched.instant(i) for i in range(200)]
    for _ in range(200):
        a = rng.randrange(0, 80_000)
        b = a + rng.randrange(1, 40_000)
        expected = sum(1 for t in instants if a <= t < b)
        assert sched.count_in(a, b) == expected


def test_capacity_bits():
    sched = parse_trace("10\n20\n30\n")
    assert sched.capacity_bits(0, 30_000) == 3 * MTU_BITS


def test_long_run_bps():
    sched = parse_trace("10\n20\n30\n")
    assert sched.long_run_bps() == pytest.approx(1_200_000.0)


def test_schedule_validation():
    with pytest.raises(TraceError, match="mtu"):
        TraceSchedule((5,), 10, mtu=0)
    # one check, one message, for every bad set of instants: none at all,
    # decreasing, negative, past the cycle, or on a zero-length or negative
    # cycle
    for opps, cycle in (((), 10), ((), 0), ((5, 3), 10), ((-1, 5), 10), ((15,), 10),
                        ((0,), 0), ((0,), -10)):
        with pytest.raises(TraceError, match=r"one or more, non-decreasing and within "
                                             r"\[0, cycle_length\], on a positive cycle_length"):
            TraceSchedule(opps, cycle)
    with pytest.raises(TraceError, match="phase"):
        TraceSchedule((5,), 10, phase=-1)
    # an instant at the cycle length is stored as the next cycle's t = 0
    assert TraceSchedule((5, 10), 10) == TraceSchedule((0, 5), 10)


# -- synthetic generators -----------------------------------------------------

def test_synth_constant_spacing_and_rate():
    sched = synth_constant(12e6, duration_ms=500)
    instants = [sched.instant(i) for i in range(sched.index_at_or_after(500_001))]
    assert len(instants) == 501             # t = 0 is an instant: 500 ms is one
    assert sched.instant(1) == 1_000
    assert instants[-1] == 500_000
    assert {b - a for a, b in zip(instants, instants[1:])} == {1_000}
    assert sched.capacity_bits(0, 500_001) == 501 * MTU_BITS
    assert sched.long_run_bps() == 12e6


def _duration_long(rate_bps, duration_ms, mtu):
    """A constant schedule as one duration-long cycle of ``_spaced`` instants."""
    duration_us = duration_ms * 1000
    return TraceSchedule(tuple(_spaced(rate_bps, 0, duration_us, mtu)), duration_us, mtu)


@st.composite
def constant_cases(draw):
    """(rate, duration_ms, mtu) with at most ~5,000 instants in the horizon.

    A rate built from a short period takes the one-period form at phase 0
    or 1, and an arbitrary rate mostly has a period longer than the run, so
    its one cycle is the run.  A rate above mtu*8e6 bit/s (spacing under
    1 us) is rejected.
    """
    mtu = draw(st.sampled_from([1, 3, 576, 1500, 9000]))
    numer = mtu * 8_000_000
    kind = draw(st.sampled_from(["period", "sub-us", "any"]))
    if kind == "period":
        period = draw(st.sampled_from([1, 3, 8, 12, 16, 25, 64, 125, 256, 512,
                                       625, 1000, 3125, 8000, 15625]))
        rate = draw(st.integers(1, 7)) * numer // period
    elif kind == "sub-us":
        period = draw(st.sampled_from([3, 12, 16, 625]))
        rate = draw(st.integers(period + 1, 3 * period)) * numer // period
    else:
        rate = draw(st.integers(1, 10**9))
    max_ms = min(40, 5 * numer // rate)
    return rate, draw(st.integers(0, max_ms)), mtu


@settings(max_examples=120, derandomize=True, deadline=None)
@given(constant_cases())
@example((12_000_000, 500, 1500))       # phase 0: 500 ms is an instant
@example((1_000_000_000, 2, 1500))      # phase 1: P = 12 us, 2 ms is no instant
@example((12_000_001, 50, 1500))        # P > D: the cycle is the run
@example((8_000_000, 3, 1))             # spacing exactly 1 us, P = 1 us
@example((75_000_000, 3, 1))            # sub-us spacing: rejected
@example((13_000_000_000, 1, 1500))     # sub-us spacing, P = 12 us: rejected
@example((32_000_000, 1, 3))            # sub-us spacing, P = 3 us: rejected
@example((13_000_000_000, 0, 1500))     # sub-us spacing on an empty run: rejected
@example((8_000_000_000, 1, 1500))      # phase 0, though D*rate % (mtu*8e6) != 0
@example((0.3, 5, 1500))                # a rate that rounds to 0: no instant
@example((1, 5, 1500))                  # one packet takes 12,000 s: no instant
@example((12_000_000, 0, 1500))         # an empty run: no instant
def test_synth_constant_replays_the_duration_long_cycle(case):
    rate, duration_ms, mtu = case
    D = duration_ms * 1000
    if round(rate) > mtu * 8_000_000:   # more than one packet per microsecond
        for build in (_duration_long, synth_constant):
            with pytest.raises(TraceError, match=f"rate {round(rate)} bit/s"):
                build(rate, duration_ms, mtu)
        return
    if not _spaced(rate, 0, D, mtu):    # no instant in the run: neither builds
        with pytest.raises(TraceError, match="one or more"):
            _duration_long(rate, duration_ms, mtu)
        with pytest.raises(TraceError, match="no delivery opportunity"):
            synth_constant(rate, duration_ms, mtu)
        return
    ref = _duration_long(rate, duration_ms, mtu)
    sched = synth_constant(rate, duration_ms, mtu)
    # the run fires no event after D: the instants up to D are the same, and
    # both schedules' next instant lies past D
    n = ref.index_at_or_after(D + 1)
    instants = [ref.instant(i) for i in range(n)]
    assert [sched.instant(i) for i in range(n)] == instants
    assert sched.instant(n) > D
    # both query functions are step functions with steps just after an
    # instant, so these points cover every t in [0, D + 1], including the
    # cycle boundaries of the one-period form
    points = {0, D, D + 1}
    points.update(t + d for t in instants for d in (0, 1))
    points.update(t + d for t in range(0, D + 2, sched.cycle_us) for d in (-1, 0, 1))
    for t in sorted(p for p in points if 0 <= p <= D + 1):
        assert sched.index_at_or_after(t) == ref.index_at_or_after(t), t
        assert sched.capacity_bits(0, t) == ref.capacity_bits(0, t), t


def test_synth_constant_holds_one_period_not_the_run():
    sched = resolve_schedule(SimConfig(trace="const:1gbps", duration_s=60))
    assert sched.n_opportunities <= 1
    assert sched.long_run_bps() == 1e9


def test_a_walk_schedule_covers_a_run_that_ends_mid_millisecond():
    # 150.4 ms: a 150 ms walk would replay its first 0.4 ms at the end
    cfg = SimConfig(trace="walk:1mbps-24mbps@150ms", duration_s=0.1504)
    assert resolve_schedule(cfg).cycle_us == 151_000


def test_synth_constant_integer_spacing_never_drifts():
    # 7 Mbit/s has a non-integer packet spacing; accumulated arithmetic
    # must still hit the exact long-run rate over the full cycle.
    sched = synth_constant(7e6, duration_ms=3_000)
    assert sched.long_run_bps() == pytest.approx(7e6, rel=1e-3)


def test_synth_step_counts():
    sched = synth_step([(12e6, 500), (1.2e6, 500)])
    assert sched.n_opportunities == 550
    assert sched.cycle_us == 1_000_000
    # second segment opportunities are 10 ms apart, within (500 ms, 1000 ms]
    second = [sched.instant(i) for i in range(sched.index_at_or_after(500_001),
                                              sched.index_at_or_after(1_000_001))]
    assert len(second) == 50
    assert second[0] == 510_000
    assert second[-1] == 1_000_000


def test_synth_step_outage_segment():
    sched = synth_step([(12e6, 100), (0.0, 900)])
    assert sched.n_opportunities == 100
    assert sched.count_in(100_001, 1_000_000) == 0


def test_synth_step_validation():
    with pytest.raises(TraceError):
        synth_step([])
    with pytest.raises(TraceError, match="rate"):
        synth_step([(-1.0, 100)])
    with pytest.raises(TraceError, match="duration"):
        synth_step([(1e6, 0)])


def test_synth_walk_deterministic_and_bounded():
    a = synth_walk(1e6, 24e6, step_ms=100, duration_ms=3_000, seed=11)
    b = synth_walk(1e6, 24e6, step_ms=100, duration_ms=3_000, seed=11)
    c = synth_walk(1e6, 24e6, step_ms=100, duration_ms=3_000, seed=12)
    assert a == b
    assert a != c
    # every 100 ms segment stays within bounds (packetization slack: one MTU)
    for start in range(0, 3_000, 100):
        rate = avg_rate(a, window_ms=100, t_start_ms=start)
        assert rate <= 24e6 + MTU_BITS * 10  # one extra packet per 100 ms
        assert rate >= 1e6 - MTU_BITS * 10


def test_synth_walk_starts_at_geometric_middle():
    sched = synth_walk(1e6, 24e6, step_ms=100, duration_ms=100, seed=5)
    want = math.sqrt(1e6 * 24e6)
    assert avg_rate(sched, window_ms=100) == pytest.approx(want, rel=0.05)


def test_synth_walk_checks_its_bound_before_any_draw():
    # a 100 ms walk holds the geometric middle and never nears 13 Gbit/s,
    # yet the bound alone rejects it, whatever the seed
    for seed in range(1, 6):
        with pytest.raises(TraceError, match="rate 13000000000 bit/s"):
            synth_walk(1e6, 13e9, step_ms=100, duration_ms=100, seed=seed)


def explicit_step(segments, mtu=1500):
    """``synth_step`` as it was before segment schedules, every instant
    explicit: the oracle for the segment form."""
    opps = []
    cursor_us = 0
    for rate_bps, hold_ms in segments:
        seg_end = cursor_us + hold_ms * US_PER_MS
        if rate_bps > 0:
            opps += _spaced(rate_bps, cursor_us, seg_end, mtu)
        cursor_us = seg_end
    return TraceSchedule(tuple(opps), cursor_us, mtu)


@st.composite
def step_cases(draw):
    """(segments, mtu): outages, rates whose last instant is their segment's
    end (so a last segment's is the cycle's), 1 us spacing, and any rate,
    in holds of 1-3 ms."""
    mtu = draw(st.sampled_from([1, 3, 1500]))
    numer = mtu * 8_000_000
    segments = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["outage", "ends", "1us", "any"]))
        hold = draw(st.integers(1, 3))
        if kind == "outage":
            rate = 0
        elif kind == "ends":     # a whole number of packets a millisecond
            rate = numer // 1000 * draw(st.sampled_from([1, 2, 5, 25, 250]))
        elif kind == "1us":
            rate, hold = numer, 1
        else:
            rate = draw(st.integers(1, numer // 4))
        segments.append((rate, hold))
    return segments, mtu


def assert_replays_alike(sched, ref):
    """The two schedules answer every query alike over three cycles, at
    every instant, the microsecond after it and every cycle boundary."""
    n, cycle = ref.n_opportunities, ref.cycle_us
    assert (sched.n_opportunities, sched.cycle_us, sched.mtu) == (n, cycle, ref.mtu)
    assert sched.long_run_bps() == ref.long_run_bps()
    instants = [ref.instant(i) for i in range(3 * n + 1)]
    assert [sched.instant(i) for i in range(3 * n + 1)] == instants
    points = {-1, 0, 1}
    points.update(t + d for t in instants for d in (0, 1))
    points.update(k * cycle + d for k in range(1, 4) for d in (-1, 0, 1))
    points = sorted(points)
    for t in points:
        assert sched.index_at_or_after(t) == ref.index_at_or_after(t), t
    some = points[::max(1, len(points) // 24)]
    for t0 in some:
        for t1 in some:
            assert sched.count_in(t0, t1) == ref.count_in(t0, t1), (t0, t1)
            assert sched.capacity_bits(t0, t1) == ref.capacity_bits(t0, t1), (t0, t1)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(step_cases())
@example(([(12e6, 3)], 1500))                   # last instant = cycle: phase -1
@example(([(0.0, 2), (12e6, 1), (0.0, 1)], 1500))   # outages around one segment
@example(([(8_000_000, 1), (1.2e6, 2)], 1))     # 1 us spacing, then a slow rate
@example(([(1, 3), (12e6, 1)], 1500))           # a segment too slow for a packet
@example(([(0.0, 2), (1, 3)], 1500))            # no segment holds a packet
def test_a_segment_schedule_replays_its_explicit_instants(case):
    segments, mtu = case
    try:
        ref = explicit_step(segments, mtu)
    except TraceError:      # no segment holds an instant: neither builds
        with pytest.raises(TraceError, match="no delivery opportunity"):
            synth_step(segments, mtu)
        return
    sched = synth_step(segments, mtu)
    assert_replays_alike(sched, ref)
    assert len(sched.segments) <= len(segments)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_a_walk_replays_the_explicit_instants_of_its_segments(monkeypatch, seed):
    drawn = []

    def recording(segments, mtu):
        drawn.append(list(segments))
        return synth_step(segments, mtu)
    monkeypatch.setattr(trace, "synth_step", recording)
    sched = synth_walk(6e6, 96e6, step_ms=2, duration_ms=9, seed=seed)
    (segments,) = drawn
    assert [hold for _, hold in segments] == [2, 2, 2, 2, 1]
    assert_replays_alike(sched, explicit_step(segments))


def test_a_segment_schedule_checks_its_rows():
    good = synth_step([(12e6, 3), (0.0, 1), (24e6, 2)])
    assert good.segments == ((0, 12_000_000, 0), (4_000, 24_000_000, 3))
    assert (good.n_opportunities, good.phase) == (7, -1)
    assert SegmentSchedule(good.segments, 7, 6_000) == good
    for rows, n, cycle in (
            ((), 0, 1_000),                                  # no segment
            (((0, 12_000_000, 1),), 1, 1_000),               # first index not 0
            (((0, 12_000_000, 0), (0, 12_000_000, 1)), 2, 2_000),   # starts repeat
            (((0, 12_000_000, 0),), 2, 1_000),               # 2 ms of packets in 1 ms
            (((0, 13_000_000_000, 0),), 1, 1_000),           # two packets a us
            (((0, 0, 0),), 1, 1_000)):                       # zero rate
        with pytest.raises(TraceError, match="segments must hold an opportunity each"):
            SegmentSchedule(rows, n, cycle)
    with pytest.raises(TraceError, match="mtu"):
        SegmentSchedule(good.segments, 7, 6_000, mtu=0)


def test_a_schedule_without_an_opportunity_is_refused_where_it_is_built():
    for build in (lambda: synth_step([(0.0, 5), (0.4, 3)]),   # 0.4 bit/s rounds to no packet
                  lambda: synth_step([]),
                  lambda: synth_constant(0.3, 5),
                  lambda: synth_constant(12e6, 0),
                  lambda: synth_walk(1e6, 2e6, step_ms=10, duration_ms=0, seed=1)):
        with pytest.raises(TraceError, match="no delivery opportunity"):
            build()


def test_a_const_rate_whose_period_outlasts_the_run_is_one_segment():
    sched = synth_constant(12_000_001, duration_ms=600_000)
    assert sched == synth_step([(12_000_001, 600_000)])
    assert len(sched.segments) == 1


def test_a_60_s_gigabit_walk_builds_in_segments():
    """A walk holds one row a segment: 600 at 60 s, whatever its rates."""
    tracemalloc.start()
    try:
        sched = schedule_from_spec("walk:1gbps-12gbps@100ms", 60_000, 1500, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(sched.segments) == 600
    assert sched.n_opportunities > 26_000_000
    assert peak < 1_000_000
    best = min(timed(schedule_from_spec, "walk:1gbps-12gbps@100ms", 60_000, 1500, 1)
               for _ in range(5))
    assert best < 0.010


def timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def test_avg_rate_names_the_argument_it_cannot_use():
    sched = synth_constant(12e6, 1000)
    assert avg_rate(sched, 0.001, 0.5) == 0.0    # 1 us, no instant in it
    for window, start, match in (
            (0.0004, 0.0, "rounds to no whole microsecond"),   # 0.4 us
            (0.0, 0.0, "window must be positive"),
            (-1.0, 0.0, "window must be positive"),
            (math.nan, 0.0, "window must be positive"),
            (math.inf, 0.0, "window_ms must be finite"),
            (1.0, math.inf, "t_start_ms must be finite"),
            (1.0, -math.inf, "t_start_ms must be finite"),
            (1.0, math.nan, "t_start_ms must be finite"),
            (1e308, 1e308, "window_ms must be finite")):   # 1e311 us
        with pytest.raises(TraceError, match=match):
            avg_rate(sched, window, start)


# -- expressions ---------------------------------------------------------------

def test_parse_rate_units():
    assert parse_rate("12mbps") == 12e6
    assert parse_rate("500kbps") == 500e3
    assert parse_rate("1.5gbps") == 1.5e9
    assert parse_rate("250000") == 250_000.0
    assert parse_rate("3bps") == 3.0
    with pytest.raises(TraceError):
        parse_rate("fast")
    with pytest.raises(TraceError):
        parse_rate("12 mb")


def test_schedule_from_spec_const():
    sched = schedule_from_spec("const:12mbps", duration_ms=100)
    assert sched == synth_constant(12e6, 100)


def test_schedule_from_spec_step():
    sched = schedule_from_spec("step:12mbps@500ms,1.2mbps@500ms", duration_ms=0)
    assert sched.n_opportunities == 550


def test_schedule_from_spec_walk_seed_handling():
    implicit = schedule_from_spec("walk:1mbps-24mbps@100ms", 1_000, default_seed=7)
    assert implicit == synth_walk(1e6, 24e6, 100, 1_000, seed=7)
    pinned = schedule_from_spec("walk:1mbps-24mbps@100ms:3", 1_000, default_seed=7)
    assert pinned == synth_walk(1e6, 24e6, 100, 1_000, seed=3)


def test_schedule_from_spec_errors():
    with pytest.raises(TraceError, match="unknown trace expression"):
        schedule_from_spec("ramp:1mbps", 100)
    with pytest.raises(TraceError, match="must end in 'ms'"):
        schedule_from_spec("step:1mbps@5s", 100)
    for hold in ("5.5ms", "xms", "ms"):
        with pytest.raises(TraceError, match="after a whole number"):
            schedule_from_spec(f"step:12mbps@{hold}", 100)
    with pytest.raises(TraceError, match="invalid walk"):
        schedule_from_spec("walk:1mbps@100ms", 100)


def test_is_trace_expression():
    assert is_trace_expression("const:12mbps")
    assert is_trace_expression("WALK:1mbps-2mbps@50ms")
    assert not is_trace_expression("traces/cellular.down")
    assert not is_trace_expression("12mbps")
