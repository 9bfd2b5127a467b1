"""Delivery-schedule parsing, replay arithmetic, and synthetic generators."""

import math
import random
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from natsim.config import SimConfig, resolve_schedule
from natsim.trace import (
    US_PER_MS,
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
        TraceSchedule((), 0, mtu=0)
    with pytest.raises(TraceError, match="non-decreasing"):
        TraceSchedule((5, 3), 10)
    with pytest.raises(TraceError, match="exceeds cycle"):
        TraceSchedule((15,), 10)
    with pytest.raises(TraceError, match="phase"):
        TraceSchedule((5,), 10, phase=-1)
    with pytest.raises(TraceError, match="zero-length cycle"):
        TraceSchedule((0,), 0)
    # an instant at the cycle length is stored as the next cycle's t = 0
    assert TraceSchedule((5, 10), 10) == TraceSchedule((0, 5), 10)
    empty = TraceSchedule((), 0)
    assert not empty.usable
    assert empty.long_run_bps() == 0.0
    with pytest.raises(TraceError):
        empty.instant(0)


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
def test_synth_constant_replays_the_duration_long_cycle(case):
    rate, duration_ms, mtu = case
    D = duration_ms * 1000
    if round(rate) > mtu * 8_000_000:   # more than one packet per microsecond
        for build in (_duration_long, synth_constant):
            with pytest.raises(TraceError, match=f"rate {round(rate)} bit/s"):
                build(rate, duration_ms, mtu)
        return
    ref = _duration_long(rate, duration_ms, mtu)
    sched = synth_constant(rate, duration_ms, mtu)
    assert sched.usable == ref.usable
    if not ref.usable:
        return
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
