"""``python tools/counts.py`` prints src/'s line counts and the Python calls,
opcodes (split by module too), heap events, bytes and tracemalloc peaks of
benchmark-shaped runs at seed 1 (CI's step summary): each repeats exactly on
one Python version, so it shows what a change moves without timing noise.
On 3.11, where the ceilings are pinned, a count above its ceiling writes
an ``::error::`` line to stderr, and the script exits 1 once every count has
printed.  natsim comes from this checkout's src/, and the workload settings,
``walk_trace`` and ``deep_size`` from its perfbench/.
"""

import ast
import dataclasses
import gc
import io
import os
import platform
import sys
import tokenize
import tracemalloc
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from natsim import config, engine  # noqa: E402
from natsim.trace import parse_trace, schedule_from_spec  # noqa: E402
from stats import deep_size  # noqa: E402

PINNED = (3, 11)   # the interpreter the ceilings were measured on
REF_12M = {"scheme": "natcp", "trace": "const:12mbps", "seed": "1"}


@contextmanager
def no_collection():
    """Collects garbage, then holds the cyclic collector off while a count
    runs: a finalizer that a collection runs mid-count (another module's
    garbage, say hypothesis's in the test suite) would add to that count."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def python_calls(fn, *args):
    """(Python function calls, not C calls, that fn(*args) makes, its value)."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"
    with no_collection():
        sys.setprofile(count)
        value = fn(*args)
        sys.setprofile(None)
    return calls, value


def python_lines(fn, *args):
    """(Python lines that fn(*args) runs, its value)."""
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return local
    with no_collection():
        sys.settrace(local)
        value = fn(*args)
        sys.settrace(None)
    return lines, value


def opcodes_by_module(fn, *args):
    """(Counter of the opcodes fn(*args) runs, by the ``__name__`` of the
    module whose globals each runs in, its value).  A dataclass's generated
    methods run in its module's globals, so they count there; the counts'
    sum is the run's opcode total."""
    tracers = {}   # module name -> (its frames' trace function, its count's reader)

    def module_tracer():
        # one counter a module, kept as a closure's int: an opcode costs the
        # tracer one add, not a dict update
        n = 0

        def local(frame, event, arg):
            nonlocal n
            n += event == "opcode"
            return local
        return local, lambda: n

    def call(frame, event, arg):
        frame.f_trace_opcodes = True
        name = frame.f_globals["__name__"]
        if name not in tracers:
            tracers[name] = module_tracer()
        return tracers[name][0]
    with no_collection():
        sys.settrace(call)
        value = fn(*args)
        sys.settrace(None)
    return Counter({name: read() for name, (_, read) in tracers.items()}), value


def per_module(split: Counter, pkts: int) -> str:
    """The split as opcodes a delivered packet per module, largest first."""
    return ", ".join(f"{name.removeprefix('natsim.')} {n / pkts:.1f}"
                     for name, n in split.most_common())


def traced_peak(fn, *args):
    """(the peak of the bytes tracemalloc traces while fn(*args) runs, over
    what was traced before it, its value)."""
    with no_collection():
        tracemalloc.start()
        value = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak, value


def run_and_summary(sim: engine.Simulation):
    """A run and its summary row: the figures every run ends in."""
    result = sim.run()
    result.summary_row()
    return result


def heap_events(sim: engine.Simulation):
    """(events sim's run pops from its heap, which ``processed`` counts
    without the loop's stop entries, the run's result)."""
    result = sim.run()
    return sim.loop.processed, result


def simulation(settings: dict, duration_s: str, **overrides: str) -> engine.Simulation:
    """A wired simulation, so that a count covers its run, not its set-up."""
    return engine.Simulation(config.build_config(
        None, {**settings, "duration_s": duration_s, **overrides}))


def at_seed_1(workload) -> dict:
    w = workload.__new__(workload)   # settings only: no output directory
    w.seed = 1
    return w.make_settings()


def over_ceilings(*checks) -> int:
    """Writes an ``::error::`` line for each (what, value, ceiling) check whose
    value is above its ceiling, on the pinned interpreter only; 1 if any."""
    over = [c for c in checks if sys.version_info[:2] == PINNED and c[1] > c[2]]
    for what, value, ceiling in over:
        print(f"::error::{what}: {value:,.2f}, above {ceiling:,}", file=sys.stderr)
    return 1 if over else 0


def code_lines(text: str) -> int:
    """Lines that hold code: no docstring (found with ast), comment-only or
    blank line (found with tokenize), since removing those simplifies nothing."""
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
              tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in layout:
            code.update(range(tok.start[0], tok.end[0] + 1))
    defs = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(ast.parse(text)):
        first = node.body[0] if isinstance(node, defs) and node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            code.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(code)


# the groups, in the summary's order: each prints its counts, and returns
# 1 when one is above its ceiling

def source_lines():
    texts = {path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
             for path in sorted((ROOT / "src" / "natsim").glob("*.py"))}
    for count, total in ((lambda text: text.count("\n"), "total"),
                         (code_lines, "code lines in total")):
        counts = {name: count(text) for name, text in texts.items()}
        print("```", *(f"{n:6} {name}" for name, n in counts.items()),
              f"{sum(counts.values()):6} {total}", "```", sep="\n")


def crowd_calls_and_events():
    """The fan-out path: each digest reaches every started flow (oob)."""
    from workloads import Crowd
    crowd = at_seed_1(Crowd)
    checks = []
    for mode, ceiling in (("oob", 21.2), ("ib", 23.0)):
        calls, result = python_calls(simulation(crowd, "2", **{"assist.mode": mode}).run)
        pkts = sum(len(f.deliveries) for f in result.flows)
        print(f"crowd ({mode}), 2 s at seed 1: {calls:,} Python calls for {pkts:,} "
              f"delivered packets, {calls / pkts:.2f} a packet")
        checks.append((f"crowd ({mode}, 2 s): Python calls a packet", calls / pkts, ceiling))
    pops, result = heap_events(simulation(crowd, "10"))
    pkts = sum(len(f.deliveries) for f in result.flows)
    print(f"crowd, 10 s at seed 1: {pops:,} heap events for {pkts:,} delivered "
          f"packets, {pops / pkts:.2f} a packet")
    split, short = opcodes_by_module(simulation(crowd, "2").run)
    opcodes, short_pkts = sum(split.values()), sum(len(f.deliveries) for f in short.flows)
    print(f"crowd, 2 s at seed 1: {opcodes:,} opcodes for {short_pkts:,} delivered "
          f"packets, {opcodes / short_pkts:.1f} a packet; by module: "
          f"{per_module(split, short_pkts)}")
    return over_ceilings(*checks, ("crowd (10 s): heap events a packet", pops / pkts, 2.54))


def ref_12m_per_packet():
    """A per-packet call, opcode loop or heap event that comes back shows here."""
    calls, result = python_calls(simulation(REF_12M, "10").run)
    pkts = sum(len(f.deliveries) for f in result.flows)
    print(f"ref-12m, 10 s at seed 1: {calls:,} Python calls for {pkts:,} "
          f"delivered packets, {calls / pkts:.2f} a packet")
    split, short = opcodes_by_module(simulation(REF_12M, "2").run)
    opcodes, short_pkts = sum(split.values()), sum(len(f.deliveries) for f in short.flows)
    print(f"ref-12m, 2 s at seed 1: {opcodes:,} opcodes for {short_pkts:,} "
          f"delivered packets, {opcodes / short_pkts:.1f} a packet; by module: "
          f"{per_module(split, short_pkts)}")
    pops, _ = heap_events(simulation(REF_12M, "10"))
    print(f"ref-12m, 10 s at seed 1: {pops:,} heap events, "
          f"{pops / pkts:.2f} a delivered packet")
    size = deep_size(result)
    print(f"ref-12m, 10 s at seed 1: the result keeps {size:,} bytes, "
          f"{size / pkts:.2f} a delivered packet")
    return over_ceilings(("ref-12m (10 s): Python calls a packet", calls / pkts, 15.0),
                         ("ref-12m (10 s): heap events a packet", pops / pkts, 2.1),
                         ("ref-12m (2 s): opcodes a packet", opcodes / short_pkts, 800),
                         ("ref-12m (10 s): result bytes a packet", size / pkts, 7.26))


def peak_bytes(name: str, settings: dict, ceiling: float) -> int:
    """tracemalloc's peak over a 10 s run and its summary row, which every
    run ends in, in bytes a delivered packet."""
    peak, result = traced_peak(run_and_summary, simulation(settings, "10"))
    pkts = sum(len(f.deliveries) for f in result.flows)
    print(f"{name}, 10 s at seed 1: run() and summary_row() peak at {peak:,} "
          f"bytes, {peak / pkts:.2f} a delivered packet")
    return over_ceilings((f"{name} (10 s): peak bytes a packet", peak / pkts, ceiling))


def ref_12m_peak_bytes():
    """What a run holds at its peak: the result, and no sorted copy of its
    delay samples."""
    return peak_bytes("ref-12m", REF_12M, 14)


def crowd_peak_bytes():
    """The same, with 64 queues' delay samples pooled."""
    from workloads import Crowd
    return peak_bytes("crowd", at_seed_1(Crowd), 43)


def walk_build_bytes():
    """A step or walk schedule holds one row a segment, not its instants."""
    peak, sched = traced_peak(schedule_from_spec, "walk:1gbps-12gbps@100ms", 60_000, 1500, 1)
    print(f"walk:1gbps-12gbps@100ms, 60 s: its build peaks at {peak:,} bytes, "
          f"for {sched.n_opportunities:,} opportunities a cycle")
    return over_ceilings(("walk:1gbps-12gbps@100ms (60 s): build peak bytes", peak, 1_000_000))


def walk_parse_lines():
    """cellular-cli's trace (tests/test_trace.py fails above 1,000 lines)."""
    from workloads import walk_trace
    text = walk_trace(1)
    lines, _ = python_lines(parse_trace, text)
    print(f"walk trace at seed 1, {len(text.splitlines()):,} stamps: "
          f"parse_trace runs {lines:,} Python lines")


def gig_result_and_per_packet():
    """The largest result, and the workload the pacer drives hardest."""
    from workloads import Gig
    gig = at_seed_1(Gig)
    pops, result = heap_events(simulation(gig, "2"))
    pkts = sum(len(f.deliveries) for f in result.flows)
    size = deep_size(result)
    print(f"gig, 2 s at seed 1: the result keeps {size:,} bytes, "
          f"{size / pkts:.2f} a delivered packet")
    print(f"gig, 2 s at seed 1: {pops:,} heap events for {pkts:,} delivered "
          f"packets, {pops / pkts:.2f} a packet")
    split, _ = opcodes_by_module(simulation(gig, "2").run)
    opcodes = sum(split.values())
    print(f"gig, 2 s at seed 1: {opcodes:,} opcodes, {opcodes / pkts:.1f} "
          f"a delivered packet; by module: {per_module(split, pkts)}")
    return over_ceilings(("gig (2 s): heap events a packet", pops / pkts, 4.05),
                         ("gig (2 s): opcodes a packet", opcodes / pkts, 965),
                         ("gig (2 s): result bytes a packet", size / pkts, 6.18))


def event_log_row_bytes():
    """The rows live in a spool file of 40 bytes a row, not in memory."""
    off, on = (simulation(REF_12M, "10", **{"log.events": events}).run()
               for events in ("off", "on"))
    size_off, size_on = deep_size(off), deep_size(on)
    rows = os.fstat(on.events.fileno()).st_size // 40
    per_row = (size_on - size_off) / rows
    print(f"natcp on const:12mbps, 10 s at seed 1 with log.events=on: the "
          f"result keeps {size_on:,} bytes, {per_row:.2f} a row over "
          f"{rows:,} event-log rows ({size_off:,} bytes with the log off)")
    return over_ceilings(("event log (10 s): bytes a row", per_row, 1))


def feedback_arrival_bytes():
    """A packed row and its reference are 48 bytes, and a boxed row about 97
    out of band and 123 in band (with each flow's one-flow tuple)."""
    from workloads import Crowd
    checks = []
    for mode in ("oob", "ib"):
        result = simulation(at_seed_1(Crowd), "2", **{"assist.mode": mode}).run()
        size, arrivals = deep_size(result), len(result.feedback_log)
        per_arrival = (size - deep_size(dataclasses.replace(
            result, feedback=array("q"), feedback_fids=[]))) / arrivals
        print(f"crowd ({mode}), 2 s at seed 1: the result keeps {size:,} bytes, "
              f"{per_arrival:.1f} a feedback arrival over {arrivals:,} arrivals "
              f"in {len(result.feedback_fids):,} packed rows")
        checks.append((f"crowd ({mode}, 2 s): bytes a feedback arrival", per_arrival, 56))
    return over_ceilings(*checks)


GROUPS = (source_lines, crowd_calls_and_events, ref_12m_per_packet, walk_parse_lines,
          gig_result_and_per_packet, event_log_row_bytes, feedback_arrival_bytes,
          ref_12m_peak_bytes, crowd_peak_bytes, walk_build_bytes)


def main() -> int:
    """Runs each group in a fresh interpreter that imports only this module: a
    process's first run makes 26 more Python calls (ABC subclass checks) than
    a later one, and each ``collections.abc`` subclass imported adds one.  So
    only the parent imports ``subprocess``, and the ref-12m groups never
    import perfbench's workloads (natsim.cli)."""
    import subprocess
    pinned = sys.version_info[:2] == PINNED
    print(f"Python {platform.python_version()}" + (
        "" if pinned else ": the ceilings are pinned to 3.11, and not checked"), flush=True)
    failed = 0
    for group in GROUPS:
        code = f"import sys, counts; sys.exit(counts.{group.__name__}())"
        failed |= subprocess.run([sys.executable, "-c", code], cwd=ROOT / "tools").returncode
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
