"""natsim benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload ref-12m --seed 1 --seconds 15 --trace 0

Run from the root of a natsim checkout; the simulator is imported from its
``src``.  Each measurement runs in its own child process (measure.py).
With ``--trace 0`` the child runs untraced and the end-to-end metrics are
printed.  With ``--trace 1`` an untraced child and a traced child share
the time, and the per-layer metrics are printed, including the tracing
overhead.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  See perfbench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from speed import NOMINAL_LOOP_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"
WORKLOAD_NAMES = ("ref-12m", "cellular-cli", "crowd", "gig")
DEADLINE_S = 170  # every invocation must end within 180 s


def measure(mode: str, args, seconds: float, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--mode", mode]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} measurement exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def golden_digest(workload: str, seed: int) -> str | None:
    if not GOLDEN.is_file():
        return None
    return json.loads(GOLDEN.read_text()).get(workload, {}).get(str(seed))


def main() -> int:
    parser = argparse.ArgumentParser(description="natsim benchmark")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "natsim" / "__init__.py").is_file():
        print(f"run: no natsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            plain = measure("timed", args, args.seconds / 2, deadline)
            traced = measure("traced", args, args.seconds / 2, deadline)
        else:
            plain = measure("timed", args, args.seconds, deadline)
            traced = None
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 1

    if traced is not None and not traced["metrics"]:
        print(f"run: no traced iteration completed: {traced['problems']}", file=sys.stderr)
        return 1
    golden = golden_digest(args.workload, args.seed)
    outputs_match = None if golden is None else plain["digest"] == golden
    children = [plain] if traced is None else [plain, traced]
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    problems = sorted({p for c in children for p in c["problems"]})
    checks = {
        "outputs_match": "no golden for this seed" if golden is None else outputs_match,
        "replay_identical": not any(c["replay_mismatches"] for c in children),
    }
    if traced is None:
        metrics = plain["metrics"]
    else:
        checks["traced_matches_untraced"] = traced["digest"] == plain["digest"]
        metrics = dict(traced["metrics"])
        metrics["spans.overhead_x"] = (traced["run_s"] / plain["run_s"], "ratio")
        metrics["engine.events_per_s"] = (traced["events"] / plain["run_s"], "1/s")
        metrics["engine.sim_s_per_host_s"] = (traced["sim_s"] / plain["run_s"], "ratio")
        if traced["missing"]:
            print("untraced targets (not in the code): " + ", ".join(traced["missing"]))
    # a replay mismatch is already a failed iteration
    correct = (failed == 0 and outputs_match is not False
               and checks.get("traced_matches_untraced", True))

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={attempted} failed={failed}")
    for key, value in checks.items():
        print(f"  {key}: {value}")
    print(f"  run_s before speed scaling {plain['raw_run_s']:.6g} s; speed loop median "
          f"{plain['speed_loop_s']:.6g} s (times are scaled to a host where it takes "
          f"{NOMINAL_LOOP_S} s)")
    for problem in problems:
        print(f"  problem: {problem}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:<34} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
