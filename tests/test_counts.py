"""``tools/counts.py``'s opcode split: each opcode charged to one module,
the same split on every run, and its sum the run's opcode total."""

import functools
import gc
import sys

from natsim.config import build_config
from natsim.engine import Simulation


def all_opcodes(counts, fn):
    """Every opcode fn() runs, counted with no split."""
    n = 0

    def local(frame, event, arg):
        nonlocal n
        frame.f_trace_opcodes = True
        n += event == "opcode"
        return local
    with counts.no_collection():
        sys.settrace(local)
        fn()
        sys.settrace(None)
    return n


def test_the_opcode_split_repeats_and_sums_to_the_total(load_tool):
    counts = load_tool("counts")
    settings = {"scheme": "natcp", "trace": "const:12mbps", "duration_s": "0.2",
                "flows.start_s": "0,0.05", "flows.ue": "0,1"}

    def run():
        return Simulation(build_config(None, settings)).run()
    run()   # a process's first run does one-off work that a later one does not
    split, _ = counts.opcodes_by_module(run)
    assert counts.opcodes_by_module(run)[0] == split
    assert sum(split.values()) == all_opcodes(counts, run)
    # Packet's dataclass-generated __init__ counts in emulink, not "<string>"
    assert "<string>" not in split
    assert {"natsim.engine", "natsim.emulink", "natsim.transport", "natsim.cc"} <= set(split)


def test_no_collection_runs_code_inside_a_count(load_tool):
    """A collection may run Python code (finalizers, gc callbacks) that fn
    did not call; in a count, none runs.  fn here runs no Python code of its
    own, but allocates enough to collect at every allocation."""
    counts = load_tool("counts")

    def make_lists():   # a fresh fn for each count: its map is used up
        return functools.partial(list, map(list, ["ab"] * 2000))

    def on_collection(phase, info):
        sum(range(10))
    threshold = gc.get_threshold()
    gc.callbacks.append(on_collection)
    gc.set_threshold(1)
    try:
        calls, lists = counts.python_calls(make_lists())
        split, _ = counts.opcodes_by_module(make_lists())
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(on_collection)
    assert len(lists) == 2000
    assert calls == 0
    assert not split
