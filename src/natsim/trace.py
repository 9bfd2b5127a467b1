"""Downlink delivery schedules for the bottleneck (base-station) link.

A schedule is a list of instants at which the link may transmit one packet
of ``mtu`` bytes toward the user equipment.  Schedules come from
Mahimahi-format trace files (one integer millisecond timestamp per line,
non-decreasing) or from the synthetic generators below, and are replayed
cyclically: an opportunity at time ``t`` within the cycle repeats at
``t + k * cycle_length`` for every k >= 0.

Internally all instants are integer microseconds, and a schedule stores
each once, local to its cycle.  A timestamp equal to the cycle length is
the next cycle's t = 0, so a trace listing both ``0`` and the cycle length
yields back-to-back opportunities at the wrap point (kept as-is, not
deduplicated).  A trace file's cycle is its last timestamp.

A well-formed trace file is parsed in bulk: one ``int`` pass over its
lines, one multiply pass to microseconds, and one pairwise compare in
``TraceSchedule`` that checks the order.  A per-line loop runs only for
a file that pass cannot take, one with a comment, a blank line or a
malformed, negative or decreasing stamp; it skips the first two and names
the line of the first error.

Synthetic rates are spaced at least 1 us apart: a rate above mtu*8e6 bit/s
would put more than one packet in a microsecond and raises TraceError.  A
constant-rate schedule repeats exactly every P = mtu*8e6 / gcd(mtu*8e6, rate)
us (12 us at 1 Gbit/s, 1 ms at 12 Mbit/s), so ``synth_constant`` stores one
period of instants and a ``phase``, the index in that cyclic sequence where
replay starts, or the whole run when the period is longer.
"""

from __future__ import annotations

import bisect
import math
import operator
import random
import re
from dataclasses import dataclass

DEFAULT_MTU = 1500
US_PER_MS = 1000


class TraceError(ValueError):
    """Raised for malformed trace files or invalid synthetic parameters."""


@dataclass(frozen=True)
class TraceSchedule:
    """Cyclic schedule of per-packet delivery opportunities.

    opportunities_us: opportunity instants within one cycle, sorted, each
        in [0, cycle_us].  Instants equal to cycle_us are stored as 0, the
        next cycle's start, so the stored tuple holds cycle-local instants.
    cycle_us: replay period.  May be 0 only for an empty schedule.
    mtu: bytes deliverable per opportunity.
    phase: index in the cyclic sequence of wrapped instants where replay
        starts; opportunity 0 is the phase-th one.  A one-period constant
        schedule uses phase 1 to skip the opportunity at t = 0 that its
        duration-long equivalent would not have.
    """

    opportunities_us: tuple[int, ...]
    cycle_us: int
    mtu: int = DEFAULT_MTU
    phase: int = 0

    def __post_init__(self) -> None:
        if self.mtu <= 0:
            raise TraceError("mtu must be positive")
        if self.cycle_us < 0:
            raise TraceError("cycle_length must be non-negative")
        opps = tuple(self.opportunities_us)
        if opps and not (opps[0] >= 0 and opps[-1] <= self.cycle_us
                         and all(map(operator.le, opps, opps[1:]))):
            prev = -1   # find the first bad instant, to name what is wrong
            for t in opps:
                if t < 0:
                    raise TraceError("opportunity instants must be non-negative")
                if t < prev:
                    raise TraceError("opportunity instants must be non-decreasing")
                if t > self.cycle_us:
                    raise TraceError("opportunity instant exceeds cycle_length")
                prev = t
        if self.cycle_us == 0 and opps:
            raise TraceError("zero-length cycle with opportunities")
        if self.phase < 0:
            raise TraceError("phase must be non-negative")
        n = bisect.bisect_left(opps, self.cycle_us)
        object.__setattr__(self, "opportunities_us", (0,) * (len(opps) - n) + opps[:n])

    @property
    def n_opportunities(self) -> int:
        return len(self.opportunities_us)

    @property
    def usable(self) -> bool:
        """True when the schedule can be replayed over any horizon."""
        return bool(self.opportunities_us)

    def long_run_bps(self) -> float:
        """Long-run average capacity in bits/s over whole cycles."""
        if not self.usable:
            return 0.0
        return self.n_opportunities * self.mtu * 8 * 1e6 / self.cycle_us

    def instant(self, index: int) -> int:
        """Global time (us) of the index-th opportunity (0-based, cyclic)."""
        opps = self.opportunities_us
        if not opps:
            raise TraceError("empty schedule cannot be replayed")
        k, r = divmod(index + self.phase, len(opps))
        return k * self.cycle_us + opps[r]

    def index_at_or_after(self, t_us: int) -> int:
        """Smallest opportunity index whose instant is >= t_us."""
        opps = self.opportunities_us
        if not opps:
            raise TraceError("empty schedule cannot be replayed")
        if t_us <= 0:
            return 0
        k, r = divmod(t_us, self.cycle_us)
        return max(0, k * len(opps) + bisect.bisect_left(opps, r) - self.phase)

    def count_in(self, t0_us: int, t1_us: int) -> int:
        """Number of opportunities in the half-open window [t0_us, t1_us)."""
        if t1_us <= t0_us or not self.usable:
            return 0
        return self.index_at_or_after(t1_us) - self.index_at_or_after(t0_us)

    def capacity_bits(self, t0_us: int, t1_us: int) -> int:
        """Bits deliverable in [t0_us, t1_us) if every opportunity is used."""
        return self.count_in(t0_us, t1_us) * self.mtu * 8


def avg_rate(schedule: TraceSchedule, window_ms: float, t_start_ms: float = 0.0) -> float:
    """Average offered rate (bits/s) over [t_start, t_start + window).

    Counts delivery opportunities in the window (crossing cycle wraps as
    needed) and converts to bits per second.
    """
    if window_ms <= 0:
        raise TraceError("window must be positive")
    t0 = round(t_start_ms * US_PER_MS)
    t1 = round((t_start_ms + window_ms) * US_PER_MS)
    bits = schedule.capacity_bits(t0, t1)
    return bits * 1e6 / (t1 - t0)


def parse_trace(text: str, mtu: int = DEFAULT_MTU) -> TraceSchedule:
    """Parse a Mahimahi-format trace body into a schedule.

    One non-negative integer millisecond timestamp per line, non-decreasing.
    Blank lines and lines starting with ``#`` are ignored.  The cycle length
    is the last timestamp, which must be positive.

    A file the bulk pass cannot take goes to ``_parse_lines``, which names
    the error.  Both call ``int`` on the same ``splitlines`` pieces (``int``
    strips the whitespace ``str.strip`` does), so they accept the same files.
    """
    try:
        stamps_ms = list(map(int, text.splitlines()))
        return TraceSchedule(tuple(map(US_PER_MS.__mul__, stamps_ms)),
                             stamps_ms[-1] * US_PER_MS, mtu)
    except (ValueError, IndexError):    # TraceError is a ValueError
        pass
    return _parse_lines(text, mtu)


def _parse_lines(text: str, mtu: int) -> TraceSchedule:
    """``parse_trace`` one line at a time: skips comments and blank lines,
    and names the line of the first malformed, negative or decreasing stamp."""
    stamps_ms: list[int] = []
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


def _spaced(rate_bps: float, start_us: int, end_us: int, mtu: int) -> list[int]:
    """Opportunities in (start_us, end_us], one per mtu at rate_bps.

    The k-th is at start + floor(k * mtu * 8e6 / rate) in integer
    arithmetic, so rounding never drifts; the last k is the largest with
    k * mtu * 8e6 < (end - start + 1) * rate.  A rate above mtu*8e6 bit/s
    would put more than one packet in a microsecond and is rejected.
    """
    rate = round(rate_bps)
    numer = mtu * 8 * 1_000_000
    if rate > numer:
        raise TraceError(f"rate {rate} bit/s puts more than one {mtu}-byte packet "
                         f"in a microsecond (at most {numer} bit/s)")
    last = ((end_us - start_us + 1) * rate - 1) // numer
    return [start_us + k * numer // rate for k in range(1, last + 1)]


def synth_constant(rate_bps: float, duration_ms: int, mtu: int = DEFAULT_MTU) -> TraceSchedule:
    """Constant-rate schedule: evenly spaced opportunities at ``rate_bps``.

    Over [0, duration] it replays ``_spaced(rate_bps, 0, duration, mtu)``
    cycled at the duration, which has an opportunity at t = 0 only when the
    duration is itself an instant.  Those instants repeat every period
    P = mtu*8e6 / gcd(mtu*8e6, rate) us, so the schedule holds one cycle of
    min(P, duration).  When P is the shorter, ``phase`` 1 skips the t = 0
    opportunity if the duration is not an instant.  The rate is exact over
    whole cycles (spacing is accumulated in integer arithmetic, so rounding
    never drifts).  duration_ms = 0 yields an empty schedule that cannot be
    replayed.
    """
    if rate_bps <= 0:
        raise TraceError("rate must be positive")
    if duration_ms < 0:
        raise TraceError("duration must be non-negative")
    duration_us = duration_ms * US_PER_MS
    rate = round(rate_bps)
    numer = mtu * 8 * 1_000_000
    cycle_us = min(numer // math.gcd(numer, rate), duration_us)
    # D is an instant when the first instant at or after it comes before D + 1
    first = -(-duration_us * rate // numer)
    phase = int(cycle_us < duration_us and first * numer >= (duration_us + 1) * rate)
    return TraceSchedule(tuple(_spaced(rate_bps, 0, cycle_us, mtu)), cycle_us, mtu,
                         phase=phase)


def synth_step(segments: list[tuple[float, int]], mtu: int = DEFAULT_MTU) -> TraceSchedule:
    """Piecewise-constant schedule from (rate_bps, hold_ms) segments.

    A zero-rate segment contributes no opportunities (an outage).  The cycle
    length is the total duration of all segments.
    """
    if not segments:
        raise TraceError("at least one segment is required")
    opps: list[int] = []
    cursor_us = 0
    for rate_bps, hold_ms in segments:
        if rate_bps < 0:
            raise TraceError("segment rate must be non-negative")
        if hold_ms <= 0:
            raise TraceError("segment duration must be positive")
        seg_end = cursor_us + hold_ms * US_PER_MS
        if rate_bps > 0:
            opps += _spaced(rate_bps, cursor_us, seg_end, mtu)
        cursor_us = seg_end
    return TraceSchedule(tuple(opps), cursor_us, mtu)


def synth_walk(
    min_bps: float,
    max_bps: float,
    step_ms: int,
    duration_ms: int,
    seed: int,
    mtu: int = DEFAULT_MTU,
) -> TraceSchedule:
    """Bounded multiplicative random walk between min_bps and max_bps.

    Every ``step_ms`` the rate is multiplied by 2**u with u uniform in
    [-1, 1] and clamped to the bounds; the walk starts at the geometric
    middle.  Fully determined by ``seed``.
    """
    if min_bps <= 0 or max_bps < min_bps:
        raise TraceError("need 0 < min rate <= max rate")
    if step_ms <= 0:
        raise TraceError("step must be positive")
    _spaced(max_bps, 0, 0, mtu)     # rejects a too-fast bound before any draw
    rng = random.Random(seed)
    rate = math.sqrt(min_bps * max_bps)
    segments: list[tuple[float, int]] = []
    remaining = duration_ms
    while remaining > 0:
        hold = min(step_ms, remaining)
        segments.append((round(rate), hold))
        remaining -= hold
        rate = min(max_bps, max(min_bps, rate * 2.0 ** rng.uniform(-1.0, 1.0)))
    if not segments:
        return TraceSchedule((), 0, mtu)
    return synth_step(segments, mtu)


_RATE_RE = re.compile(r"^(\d+(?:\.\d+)?)(gbps|mbps|kbps|bps)?$", re.IGNORECASE)
_RATE_MULT = {None: 1.0, "bps": 1.0, "kbps": 1e3, "mbps": 1e6, "gbps": 1e9}


def parse_rate(text: str) -> float:
    """Parse a rate like ``12mbps``, ``500kbps``, or a bare bits/s number."""
    m = _RATE_RE.match(text.strip())
    if not m:
        raise TraceError(f"invalid rate {text!r}")
    unit = m.group(2).lower() if m.group(2) else None
    return float(m.group(1)) * _RATE_MULT[unit]


def schedule_from_spec(
    expr: str,
    duration_ms: int,
    mtu: int = DEFAULT_MTU,
    default_seed: int = 0,
) -> TraceSchedule:
    """Build a synthetic schedule from a trace expression.

    Supported forms:
      - ``const:<rate>``
      - ``step:<rate>@<ms>,<rate>@<ms>,...``           (repeated cyclically)
      - ``walk:<min>-<max>@<step_ms>[:<seed>]``        (seed defaults to the
        run seed so different runs explore different walks)
    """
    kind, _, body = expr.partition(":")
    kind = kind.strip().lower()
    if kind == "const":
        return synth_constant(parse_rate(body), duration_ms, mtu)
    if kind == "step":
        segments = []
        for part in body.split(","):
            rate_s, _, hold_s = part.partition("@")
            if not re.fullmatch(r"\s*\d+ms", hold_s):
                raise TraceError(f"step segment {part!r} must end in 'ms' "
                                 f"after a whole number")
            segments.append((parse_rate(rate_s), int(hold_s[:-2])))
        return synth_step(segments, mtu)
    if kind == "walk":
        m = re.match(r"^([^-]+)-([^@]+)@(\d+)ms(?::(\d+))?$", body.strip())
        if not m:
            raise TraceError(f"invalid walk expression {expr!r}")
        lo, hi = parse_rate(m.group(1)), parse_rate(m.group(2))
        step = int(m.group(3))
        seed = int(m.group(4)) if m.group(4) is not None else default_seed
        return synth_walk(lo, hi, step, duration_ms, seed, mtu)
    raise TraceError(f"unknown trace expression kind {kind!r}")


def is_trace_expression(value: str) -> bool:
    """True when ``value`` is a synthetic trace expression, not a file path."""
    return value.partition(":")[0].strip().lower() in {"const", "step", "walk"}
