"""Record the benchmark's reference data: golden digests and the baseline.

    python3 perfbench/record.py golden 0-20 4242   # seeds to digest
    python3 perfbench/record.py baseline           # default and held-out seed

golden    writes perfbench/golden.json: per workload and seed, the sha256
          digest of the seeded outputs (summary rows, per-flow counters and
          output files).  run.py compares every run against it, so only a
          PR that openly changes behaviour regenerates it.
baseline  writes perfbench/baseline.json: run.py's full output, with and
          without tracing, for DEFAULT_SEED and HELD_OUT_SEED on every
          workload.  A claim must also hold on the held-out seed, which is
          not used while writing a change.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
HELD_OUT_SEED = 4242


def workload_names() -> list[str]:
    return [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def parse_seeds(specs: list[str]) -> list[int]:
    seeds = []
    for spec in specs:
        lo, _, hi = spec.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def last_json(cmd: list[str]) -> dict:
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def golden(seeds: list[int]) -> None:
    path = HERE / "golden.json"
    table = json.loads(path.read_text()) if path.is_file() else {}
    for name in workload_names():
        for seed in seeds:
            report = last_json([sys.executable, str(HERE / "measure.py"), "--workload", name,
                                "--seed", str(seed), "--seconds", "0", "--mode", "digest"])
            if report["failed"]:
                raise SystemExit(f"{name} seed {seed} failed: {report['problems']}")
            table.setdefault(name, {})[str(seed)] = report["digest"]
            print(name, seed, report["digest"], flush=True)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def host() -> str:
    cpu = platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    return f"{cpu}, {os.cpu_count()} CPUs, Python {platform.python_version()}"


def baseline() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = {}
    for name in workload_names():
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            for trace in (0, 1):
                result = last_json([sys.executable, str(HERE / "run.py"), "--workload", name,
                                    "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                                    "--trace", str(trace)])
                runs.setdefault(name, {}).setdefault(str(seed), {})[f"trace{trace}"] = result
                print(name, seed, trace, result["correct"], flush=True)
    doc = {
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "recorded": time.strftime("%Y-%m-%d"),
        "host": host(),
        "run_seconds": spec["run_seconds"],
        "runs": runs,
    }
    (HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")


def main() -> int:
    if len(sys.argv) < 2 or sys.argv[1] not in ("golden", "baseline"):
        print(__doc__, file=sys.stderr)
        return 2
    if sys.argv[1] == "golden":
        golden(parse_seeds(sys.argv[2:]))
    else:
        baseline()
    return 0


if __name__ == "__main__":
    sys.exit(main())
