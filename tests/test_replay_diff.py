"""``tools/replay_diff.py``: the configs it draws are valid and cover what
it promises, and a run's digests repeat and see a moved output."""

import random
from pathlib import Path

import natsim
from natsim.config import build_config, resolve_schedule
from natsim.trace import parse_trace

def test_drawn_configs_are_valid_and_cover_every_kind(load_tool, tmp_path):
    tool = load_tool("replay_diff")
    files = tool.write_trace_files(tmp_path, random.Random(1))
    for path in files:
        assert parse_trace(Path(path).read_text()).n_opportunities > 0
    configs = tool.draw_configs(300, 7, files)
    rng = random.Random(7)
    assert configs == [tool.draw_config(rng, files) for _ in range(300)]
    for settings in configs:
        build_config(None, settings).require_valid()
    assert {c["scheme"] for c in configs} == set(natsim.SCHEMES)
    assert {c["assist.mode"] for c in configs} == {"oob", "ib"}
    kinds = {c["trace"].split(":")[0] if ":" in c["trace"] else "file" for c in configs}
    assert kinds == {"const", "step", "walk", "file"}
    assert any(",0mbps" in c["trace"] or ":0mbps" in c["trace"]
               for c in configs)   # a zero-rate outage
    assert {c["path.loss_prob"] for c in configs} > {"0", "0.05"}
    assert any(c["queue.capacity_bytes"] == c["mtu"] for c in configs)   # one packet
    flows = [len(c["flows.ue"].split(",")) for c in configs]
    assert min(flows) == 1 and max(flows) > 48 and max(flows) <= 64
    assert any(len(set(c["flows.start_s"].split(","))) > 1 for c in configs)
    assert {c["duration_s"] for c in configs} == {"2", "1.9337"}


def test_every_drawn_trace_builds_its_schedule(load_tool, tmp_path):
    """Every drawn trace holds a delivery opportunity: a ``step:`` trace's
    segment that carries traffic holds a packet at every drawn rate."""
    tool = load_tool("replay_diff")
    files = tool.write_trace_files(tmp_path, random.Random(10))
    for settings in tool.draw_configs(1000, 10, files):
        resolve_schedule(build_config(None, settings))


def test_digests_repeat_and_see_a_moved_output(load_tool, tmp_path):
    tool = load_tool("replay_diff")
    settings = tool.draw_configs(1, 3, tool.write_trace_files(tmp_path, random.Random(1)))[0]
    settings.update({"scheme": "natcp", "trace": "const:12mbps", "path.loss_prob": "0.01",
                     "log.events": "on"})
    first = tool.digests(settings)
    assert set(first) == set(tool.PARTS)
    assert tool.digests(settings) == first
    moved = tool.digests({**settings, "seed": str(int(settings["seed"]) + 1)})
    assert moved["events"] != first["events"]
    assert moved["flows"] != first["flows"]


def test_rows_show_where_a_moved_output_first_differs(load_tool):
    tool = load_tool("replay_diff")
    settings = {"scheme": "natcp", "trace": "const:12mbps", "path.loss_prob": "0.01",
                "duration_s": "0.5", "log.events": "on"}
    first = tool.rows(settings, ["flows", "delays", "events"])
    assert set(first) == {"flows", "delays", "events"}
    assert tool.rows(settings, ["flows", "delays", "events"]) == first
    assert first["flows"][0] == "[0]['flow_id'] = 0"
    assert first["delays"][0].startswith("[0] = ")
    assert first["delays"][-1].startswith(".typecode = ")
    assert "[0]['deliveries'].typecode = " in " ".join(first["flows"])
    moved = tool.rows({**settings, "seed": "2"}, ["events"])["events"]
    i = next(i for i, (a, b) in enumerate(zip(first["events"], moved)) if a != b)
    assert first["events"][i].startswith(f"[{i}] = (")
    assert (tool.first_difference(first["events"], moved)
            == f"row {i}: REV {first['events'][i]}; here {moved[i]}")
    # a side that runs out is shown by its row count
    assert tool.first_difference(["[0] = 1", "[1] = 2"], ["[0] = 1"]) == (
        "row 1: REV [1] = 2; here has 1 rows")
    assert tool.first_difference(["[0] = 1"], ["[0] = 1"]) == "no row differs on a second run"


def test_a_run_that_raises_digests_its_exception(load_tool, tmp_path):
    tool = load_tool("replay_diff")
    bad = {"trace": str(tmp_path / "missing.trace"), "duration_s": "0.1"}
    got = tool.digests(bad)
    assert len(set(got.values())) == 1
    assert got["summary"].startswith("raised ")
