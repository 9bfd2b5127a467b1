"""``python tools/replay_diff.py --against REV --configs N --seed S`` replays
N random valid configs at git revision REV and in this checkout, and prints
every config whose outputs moved.

REV's ``src/`` is extracted with ``git archive`` into a temporary directory:
no worktree, no network.  The configs are drawn from S by ``draw_config``,
the generator the property tests in ``tests/test_engine.py`` draw from too:
every scheme, both feedback modes, ``const:``, ``step:`` (zero-rate outages
included), ``walk:`` and trace-file traces, air loss, queues down to one
packet, and 1 to 64 flows with staggered starts over 1 to 8 UEs.  Each runs
for 2 s or 1.9337 s (an end between two opportunities) with the event log on
and again off, in one child process a tree, the two at once.
A run's outputs are five sha256 digests: the summary row, the per-flow
counters (``FlowStats``, deliveries and mode log included), the queuing-delay
samples, the feedback log and the event log.  A run that raises digests its
exception instead, and the summary counts the runs here that raised; a run
still going after ``RUN_TIMEOUT_S`` seconds raises ``TimeoutError`` (POSIX
only: it uses ``SIGALRM``).

Each moved config is printed with the parts that moved.  For the first
``SHOWN`` of them, both trees run it again and print, for each moved part,
its first differing row: the row's index and both trees' values.  A part's
rows are its leaves, each ``path = value``: a summary column, a flow's field
or one element of a flow's list or array, a queuing-delay sample, a
feedback-log row or an event-log row, and an array's typecode after its
elements.

The last line printed is the summary, ``replayed N configs (2N runs) at seed
S against REV: M moved``.  Exit status: 0 when no config moved, 1 when one
did, 2 when REV cannot be extracted or a child fails.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import signal
import subprocess
import sys
import tarfile
import tempfile
from array import array
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PARTS = ("summary", "flows", "delays", "feedback", "events")
SCHEMES = ("natcp", "nacubic", "cubic", "tg")
TRACE_FILES = 4   # Mahimahi trace files written for a replay, drawn from its seed
RUN_TIMEOUT_S = 10   # a run this slow raises, so a hang moves its config
SHOWN = 5   # moved configs whose first differing rows are printed


def trace_file_text(rng: random.Random) -> str:
    """A Mahimahi trace of bursts between outages: one millisecond stamp a
    delivery opportunity, over a cycle of about 0.3 to 1.5 s."""
    cycle_ms = rng.randrange(300, 1500)
    stamps = []
    t = 0
    while t < cycle_ms:
        burst = rng.randrange(1, 200)
        stamps += [rng.randrange(t, t + burst) for _ in range(rng.randrange(1, 3 * burst))]
        t += burst + rng.choice((0, 0, 20, 150))
    return "".join(f"{s}\n" for s in sorted(stamps))


def write_trace_files(directory: Path, rng: random.Random) -> list[str]:
    """``TRACE_FILES`` trace files in ``directory``, drawn from ``rng``."""
    files = []
    for i in range(TRACE_FILES):
        path = directory / f"bursts{i}.trace"
        path.write_text(trace_file_text(rng))
        files.append(str(path))
    return files


def draw_trace(rng: random.Random, files: list[str]) -> str:
    kind = rng.choice(("const", "step", "walk", "file"))
    mbps = (1, 2, 6, 12, 24, 48, 96)
    if kind == "const":
        return f"const:{rng.choice(mbps)}mbps"
    if kind == "step":
        segments = [f"{rng.choice((0,) + mbps)}mbps@{rng.randrange(5, 300)}ms"
                    for _ in range(rng.randrange(1, 5))]
        # at least one segment carries traffic: 12 ms at 1 Mbit/s hold a packet
        segments.append(f"{rng.choice(mbps)}mbps@{rng.randrange(12, 300)}ms")
        rng.shuffle(segments)
        return "step:" + ",".join(segments)
    if kind == "walk":
        low = rng.choice(mbps[:4])
        high = rng.choice([m for m in mbps if m > low])
        walk = f"walk:{low}mbps-{high}mbps@{rng.randrange(5, 200)}ms"
        return walk + rng.choice(("", f":{rng.randrange(1000)}"))
    return rng.choice(files)


def draw_start(rng: random.Random) -> str:
    """A start in [0, 1.5) s: on a millisecond, often a feedback instant,
    or on any microsecond."""
    if rng.random() < 0.5:
        return f"{rng.randrange(1500) / 1e3:g}"
    return f"{rng.randrange(1_500_000) / 1e6:g}"


def draw_config(rng: random.Random, files: list[str]) -> dict[str, str]:
    """One valid config's settings, for ``build_config(None, settings)``,
    drawn from ``rng``: its flows start before 1.5 s and its feedback stops
    before 1.8 s, within either duration."""
    flows = 1 if rng.random() < 0.3 else rng.randrange(2, 65)
    ues = rng.randrange(1, min(flows, 8) + 1)
    mtu = rng.choice((1500, 1500, 1500, 1000))
    settings = {
        "scheme": rng.choice(SCHEMES),
        "assist.mode": rng.choice(("oob", "ib")),
        "trace": draw_trace(rng, files),
        "seed": str(rng.randrange(1, 1_000_000)),
        "duration_s": rng.choice(("2", "1.9337")),   # the shorter ends off an opportunity
        "mtu": str(mtu),
        "queue.capacity_bytes": str(mtu * rng.choice((1, 2, 10, 40, 100))),
        "path.loss_prob": rng.choice(("0", "0", "0.001", "0.01", "0.05")),
        "assist.period_us": rng.choice(("10000", "20000", "50000")),
        "flows.start_s": ",".join(sorted((draw_start(rng) for _ in range(flows)), key=float)),
        "flows.ue": ",".join(str(rng.randrange(ues)) for _ in range(flows)),
    }
    if rng.random() < 0.25:   # feedback stops: the watchdogs revert
        settings["assist.suppress_after_us"] = str(rng.randrange(200_000, 1_800_000))
    if rng.random() < 0.2:    # the path's edges: ties and an ideal uplink
        settings["path.down_owd_us"] = rng.choice(("0", "500", "40000"))
        settings["path.uplink_rate_bps"] = rng.choice(("0", "1000000"))
        settings["path.probe_jitter_us"] = rng.choice(("0", "300"))
    if rng.random() < 0.2:
        settings["cc.divide_pacing_by_beta"] = "true"
    return settings


def draw_configs(n: int, seed: int, files: list[str]) -> list[dict[str, str]]:
    """n valid config settings, ``draw_config`` n times on one generator."""
    rng = random.Random(seed)
    return [draw_config(rng, files) for _ in range(n)]


def _hash(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(repr(chunk).encode())
        h.update(b"\n")
    return h.hexdigest()


def outputs(settings: dict[str, str]) -> dict[str, object] | str:
    """The five parts of one run, in the tree whose natsim is imported, or
    ``raised <exception>`` for a run that raises."""
    from natsim.config import build_config
    from natsim.engine import run_simulation
    try:
        res = run_simulation(build_config(None, settings))
    except Exception as exc:   # the same failure in both trees does not move
        return f"raised {type(exc).__name__}: {exc}"
    try:
        return {
            "summary": res.summary_row(),
            "flows": [vars(flow) for flow in res.flows],
            "delays": res.qdelay_samples_us,
            "feedback": res.feedback_log,
            "events": res.event_log,
        }
    finally:
        res.close()


def digests(settings: dict[str, str]) -> dict[str, str]:
    """The five digests of one run; a run that raises digests its exception."""
    out = outputs(settings)
    if isinstance(out, str):
        return dict.fromkeys(PARTS, "raised " + _hash(out))
    return {part: _hash(value) for part, value in out.items()}


def _leaves(value, path: str = ""):
    """``path = repr`` for each leaf of ``value``: a dict, a list and an
    array are walked, an array's typecode after its elements, so a list's or
    an array's i-th row is its i-th element."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, (list, array)):
        items = enumerate(value)
    else:
        yield f"{path} = {value!r}"
        return
    for key, item in items:
        yield from _leaves(item, f"{path}[{key!r}]")
    if isinstance(value, array):
        yield f"{path}.typecode = {value.typecode!r}"


def rows(settings: dict[str, str], parts: list[str]) -> dict[str, list[str]]:
    """The rows of each of ``parts`` of one run; a run that raises has one
    row, its exception, in each."""
    out = outputs(settings)
    return {part: [out] if isinstance(out, str) else list(_leaves(out[part]))
            for part in parts}


def first_difference(old: list[str], new: list[str]) -> str:
    """Where two trees' rows of a part first differ: the index and both
    rows, or the row count on the side that has run out."""
    for i, (a, b) in enumerate(zip_longest(old, new)):
        if a != b:
            return (f"row {i}: REV {a or f'has {len(old)} rows'}; "
                    f"here {b or f'has {len(new)} rows'}")
    return "no row differs on a second run"


def _timed_out(signum, frame):
    raise TimeoutError(f"no result within {RUN_TIMEOUT_S} s")


def _timed(fn, *args):
    signal.setitimer(signal.ITIMER_REAL, RUN_TIMEOUT_S)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def worker(jobs_path: str, src: str) -> None:
    """A child's work, as one JSON list on stdout, each run given
    ``RUN_TIMEOUT_S`` seconds.  A job is a config's settings, whose digests
    it gives with the log on, then off; or a ``[settings, parts]`` pair,
    whose ``rows`` it gives.  It refuses to run a natsim from outside
    ``src``, such as an installed copy that shadows the tree."""
    import natsim
    if Path(natsim.__file__).resolve().parents[1] != Path(src).resolve():
        raise SystemExit(f"replay_diff: imported {natsim.__file__}, not the tree at {src}")
    signal.signal(signal.SIGALRM, _timed_out)
    out = []
    for job in json.loads(Path(jobs_path).read_text()):
        if isinstance(job, list):
            out.append(_timed(rows, *job))
        else:
            out.append([_timed(digests, {**job, "log.events": log}) for log in ("on", "off")])
    json.dump(out, sys.stdout)


def start_worker(jobs_path: Path, src: Path) -> subprocess.Popen:
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); import replay_diff; "
            f"replay_diff.worker({str(jobs_path)!r}, {str(src)!r})")
    # cwd: the temporary directory, so no natsim of the caller's directory shadows src
    return subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, text=True,
                            cwd=jobs_path.parent, env={**os.environ, "PYTHONPATH": str(src)})


def run_workers(jobs: list, jobs_path: Path, srcs: tuple[Path, Path]) -> list | None:
    """Each tree's ``worker`` output for ``jobs``, the two children at once;
    None when a child fails."""
    jobs_path.write_text(json.dumps(jobs))
    children = [start_worker(jobs_path, src) for src in srcs]
    outs = [child.communicate()[0] for child in children]
    if any(child.returncode for child in children):
        print("replay_diff: a child failed", file=sys.stderr)
        return None
    return [json.loads(out) for out in outs]


def extract_src(rev: str, into: Path) -> Path:
    """REV's ``src/`` under ``into``, from ``git archive``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False)
    if tar.returncode != 0:
        raise RuntimeError(f"git archive {rev} failed: {tar.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(into, filter="data")
        else:
            archive.extractall(into)
    return into / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="REV")
    parser.add_argument("--configs", type=int, required=True, metavar="N")
    parser.add_argument("--seed", type=int, required=True, metavar="S")
    args = parser.parse_args(argv)
    if args.configs < 1:
        parser.error("--configs must be at least 1")
    with tempfile.TemporaryDirectory(prefix="replay_diff-") as tmp:
        tmp = Path(tmp)
        try:
            old_src = extract_src(args.against, tmp / "rev")
        except RuntimeError as exc:
            print(f"replay_diff: {exc}", file=sys.stderr)
            return 2
        files = write_trace_files(tmp, random.Random(args.seed))
        configs = draw_configs(args.configs, args.seed, files)
        srcs = (old_src, ROOT / "src")
        replayed = run_workers(configs, tmp / "configs.json", srcs)
        if replayed is None:
            return 2
        moved = {}   # config index: a [settings with its log, moved parts] job per moved log
        for i, (settings, runs_old, runs_new) in enumerate(zip(configs, *replayed)):
            jobs = [[{**settings, "log.events": log}, parts]
                    for log, a, b in zip(("on", "off"), runs_old, runs_new)
                    if (parts := [p for p in PARTS if a[p] != b[p]])]
            if jobs:
                moved[i] = jobs
        jobs = [job for i in list(moved)[:SHOWN] for job in moved[i]]
        shown = run_workers(jobs, tmp / "shown.json", srcs) if jobs else ([], [])
        if shown is None:
            return 2
    shown_rows = iter(zip(*shown))   # both trees' rows, one pair a job, in job order
    for n, (i, jobs) in enumerate(moved.items()):
        parts = sorted(f"log {settings['log.events']}: {p}" for settings, ps in jobs for p in ps)
        print(f"moved: config {i}: {', '.join(parts)}\n  "
              + " ".join(f"{k}={v}" for k, v in configs[i].items()))
        for (settings, ps), (old, new) in zip(jobs, shown_rows) if n < SHOWN else ():
            for p in ps:
                print(f"  log {settings['log.events']}: {p}: {first_difference(old[p], new[p])}")
    raised = sum(run["summary"].startswith("raised") for runs in replayed[1] for run in runs)
    print(f"replayed {len(configs)} configs ({2 * len(configs)} runs) at seed "
          f"{args.seed} against {args.against}: {len(moved)} moved"
          + (f" ({raised} runs here raised)" if raised else ""))
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
