"""Command-line front end: single runs and canned experiment scenarios.

Subcommands
-----------
run             one simulation; summary row plus optional event/feedback CSVs
single-flow     one flow, several schemes, same trace -> summary.csv
fairness        two staggered flows per scheme -> summary.csv + fairness.csv
feedback-modes  schemes x {out-of-band, in-band} x seeds -> modes.csv
period-sweep    feedback-period sweep for one scheme -> sweep.csv

Exit codes: 0 success, 1 runtime failure, 2 usage/config error,
3 missing input file.  Output directory: --output-dir, else the
NATSIM_OUTPUT_DIR environment variable, else the current directory.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .cc import SCHEMES
from .config import ConfigError, SimConfig, build_config
from .emulink import EVENT_KINDS
from .engine import SUMMARY_COLUMNS, run_simulation
from .trace import TraceError

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_MISSING_INPUT = 3

DEFAULT_SWEEP_PERIODS_US = (5_000, 10_000, 25_000, 50_000, 100_000)
DEFAULT_MODE_SEEDS = (1, 2, 3, 4, 5)


# ---------------------------------------------------------------------------
# formatting / io helpers

def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return f"{value:.6g}"
    return str(value)


def write_csv(path: Path, columns: tuple, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([format_cell(row.get(col)) for col in columns])


def output_dir(args) -> Path:
    chosen = args.output_dir or os.environ.get("NATSIM_OUTPUT_DIR") or "."
    path = Path(chosen)
    path.mkdir(parents=True, exist_ok=True)
    return path


def describe(row: dict) -> str:
    """One console line from a run's summary row."""
    qd = row["avg_qdelay_ms"]
    qdelay = f"{qd:.2f}ms" if qd is not None else "n/a"
    return (
        f"{row['scheme']:<8} trace={row['trace']} "
        f"thr={row['throughput_mbps']:.3f}Mbps "
        f"goodput={row['goodput_mbps']:.3f}Mbps "
        f"qdelay={qdelay} retrans={row['retrans']} drops={row['drops']}"
    )


# ---------------------------------------------------------------------------
# config assembly

def comma_list(item):
    """argparse ``type=`` for a comma-separated list of ``item`` values: a
    bad entry is a usage error before any run starts."""
    def parse(text: str) -> list:
        return [item(part.strip()) for part in text.split(",")]
    parse.__name__ = f"{item.__name__} list"   # argparse names it in errors
    return parse


def positive_int(text: str) -> int:
    """argparse ``type=`` for a count of at least 1."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return int(text)


def parse_set_pairs(pairs: list[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for pair in pairs or []:
        key, sep, value = pair.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        out[key.strip()] = value.strip()
    return out


def config_from_args(args, extra: dict[str, str] | None = None) -> SimConfig:
    overrides = parse_set_pairs(getattr(args, "set", None))
    if getattr(args, "trace", None):
        overrides["trace"] = args.trace
    if getattr(args, "duration", None) is not None:
        overrides["duration_s"] = str(args.duration)
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = str(args.seed)
    if getattr(args, "scheme", None):
        overrides["scheme"] = args.scheme
    # the event log is recorded exactly when a run writes it out
    overrides["log.events"] = "on" if getattr(args, "events_csv", None) else "off"
    if extra:
        overrides.update(extra)
    cfg = build_config(getattr(args, "config", None), overrides)
    cfg.require_valid()
    return cfg


def summary_rows(cfg: SimConfig, result) -> tuple[list[dict]]:
    """A run's summary row, with the grid axes that a CSV may name."""
    row = result.summary_row()
    row.update(seed=cfg.seed, mode=cfg.assist.mode, period_us=cfg.assist.period_us)
    return ([row],)


def fairness_rows(cfg: SimConfig, result) -> tuple[list[dict], list[dict]]:
    """The summary row, and each flow's goodput over the run and over the
    time from the second flow's start, when both flows are running."""
    t0 = result.flows[1].start_us
    return summary_rows(cfg, result) + ([{
        "scheme": cfg.scheme, "flow": fs.flow_id, "ue": fs.ue_id,
        "start_s": fs.start_us / 1e6,
        "goodput_mbps": fs.unique_bytes * 8 / cfg.duration_us,
        "overlap_goodput_mbps": result.flow_goodput_mbps(fs.flow_id, t0, cfg.duration_us),
        "retrans": fs.retransmits, "drops": fs.drops,
    } for fs in result.flows],)


def run_point(job: tuple) -> tuple[list[dict], ...]:
    """One grid run, ``rows_of(cfg, result)``: a pool worker sends back rows,
    not the run's result."""
    rows_of, cfg = job
    return rows_of(cfg, run_simulation(cfg))


def run_grid(args, configs: list[SimConfig], rows_of, line, outputs) -> int:
    """Run one simulation per config.  ``rows_of(cfg, result)`` gives one
    list of rows per (file name, columns) entry of ``outputs``; each CSV gets
    its rows in grid order, and stdout gets ``line(row)`` of each run's first
    row.  A pool runs the grid only for a subcommand with --workers and more
    than one run; in-process, each line prints as its run ends."""
    jobs = [(rows_of, cfg) for cfg in configs]
    workers = min(getattr(args, "workers", 1), len(jobs))   # a pool may start them all at once
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            runs = list(pool.map(run_point, jobs))
    else:
        runs = map(run_point, jobs)
    tables = [[] for _ in outputs]
    for run in runs:
        print(line(run[0][0]))
        for table, rows in zip(tables, run):
            table += rows
    for (name, columns), rows in zip(outputs, tables):
        write_csv(output_dir(args) / name, columns, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommands

def cmd_run(args) -> int:
    cfg = config_from_args(args)
    result = run_simulation(cfg)
    outdir = output_dir(args)
    summary = result.summary_row()
    write_csv(outdir / "summary.csv", SUMMARY_COLUMNS, [summary])
    if args.events_csv:
        # the rows csv.writer would write (no cell needs quoting), one
        # line at a time, five values of the packed log a row: the log is
        # the largest output a run makes
        it = iter(result.events)
        with open(outdir / args.events_csv, "w", newline="") as fh:
            fh.write("time_us,kind,flow,seq,qdelay_us\r\n")
            fh.writelines(
                f"{t},{EVENT_KINDS[k]},{flow},{seq},{qdelay if qdelay >= 0 else ''}\r\n"
                for t, k, flow, seq, qdelay in zip(it, it, it, it, it))
    if args.feedback_csv:
        with open(outdir / args.feedback_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("flow", "seq", "t_emitted_us", "t_arrived_us",
                             "bl_bw_bps", "min_rtt_us"))
            for row in result.feedback_log:
                flow, seq, t_emit, t_arr, bl_bw, min_rtt = row
                writer.writerow((flow, seq, t_emit, t_arr,
                                 format_cell(float(bl_bw)), min_rtt))
    print(describe(summary))
    return EXIT_OK


def cmd_single_flow(args) -> int:
    configs = [config_from_args(args, {"scheme": s}) for s in args.schemes]
    return run_grid(args, configs, summary_rows, describe,
                    [("summary.csv", SUMMARY_COLUMNS)])


def cmd_fairness(args) -> int:
    configs = []
    for scheme in args.schemes:
        second = args.second_start
        if second is None:   # a quarter of the run, wherever its length is set
            second = config_from_args(args, {"scheme": scheme}).duration_s / 4
        configs.append(config_from_args(args, {
            "scheme": scheme, "flows.start_s": f"0,{second!r}", "flows.ue": "0,0"}))
    return run_grid(args, configs, fairness_rows, describe, [
        ("summary.csv", SUMMARY_COLUMNS),
        ("fairness.csv", ("scheme", "flow", "ue", "start_s", "goodput_mbps",
                          "overlap_goodput_mbps", "retrans", "drops"))])


def cmd_feedback_modes(args) -> int:
    # sorted axes give rows sorted by scheme, mode and seed
    configs = [
        config_from_args(args, {"scheme": scheme, "assist.mode": mode, "seed": str(seed),
                                "assist.period_us": str(args.period_us)})
        for scheme in sorted(args.schemes) for mode in sorted(args.modes)
        for seed in sorted(args.seeds)]
    columns = ("scheme", "mode", "seed", "throughput_mbps", "goodput_mbps",
               "avg_qdelay_ms", "p95_qdelay_ms", "power", "power95",
               "retrans", "drops")
    return run_grid(args, configs, summary_rows, lambda row: (
        f"{row['scheme']:<8} {row['mode']:<4} seed={row['seed']} "
        f"power95={format_cell(row['power95'])}"), [("modes.csv", columns)])


def cmd_period_sweep(args) -> int:
    configs = [config_from_args(args, {"assist.period_us": str(period)})
               for period in sorted(args.periods_us)]
    return run_grid(args, configs, summary_rows, lambda row: (
        f"period={row['period_us']}us "
        f"thr={format_cell(row['throughput_mbps'])}Mbps "
        f"p95={format_cell(row['p95_qdelay_ms'])}ms "
        f"power95={format_cell(row['power95'])}"),
        [("sweep.csv", ("period_us",) + SUMMARY_COLUMNS)])


# ---------------------------------------------------------------------------
# parser

def _subcommand(sub, name: str, fn, about: str, default_duration=None,
                schemes: str | None = None) -> argparse.ArgumentParser:
    parser = sub.add_parser(name, help=about)
    parser.set_defaults(fn=fn)
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one config key (repeatable)")
    parser.add_argument("--trace", help="trace file or const:/step:/walk: expression")
    parser.add_argument("--duration", type=float, default=default_duration,
                        help="run length in seconds")
    parser.add_argument("--seed", type=int, help="random seed")
    parser.add_argument("-o", "--output-dir",
                        help="directory for CSV outputs (default: "
                             "$NATSIM_OUTPUT_DIR or '.')")
    if schemes:
        parser.add_argument("--schemes", type=comma_list(str), default=schemes,
                            help="comma-separated scheme list")
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="natsim",
        description="Trace-driven simulator for network-assisted congestion control.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = _subcommand(sub, "run", cmd_run, "run one simulation")
    p_run.add_argument("--scheme", choices=SCHEMES)
    p_run.add_argument("--events-csv", metavar="NAME",
                       help="also write per-packet event log CSV")
    p_run.add_argument("--feedback-csv", metavar="NAME",
                       help="also write feedback message log CSV")

    _subcommand(sub, "single-flow", cmd_single_flow, "one flow, several schemes",
                schemes=",".join(SCHEMES))

    p_fair = _subcommand(sub, "fairness", cmd_fairness, "two staggered flows per scheme",
                         schemes="natcp,nacubic,cubic")
    p_fair.add_argument("--second-start", type=float, metavar="SECONDS",
                        help="start time of the second flow "
                             "(default: duration/4)")

    p_modes = _subcommand(sub, "feedback-modes", cmd_feedback_modes,
                          "out-of-band vs in-band feedback comparison",
                          default_duration=30.0, schemes="natcp,tg")
    p_modes.add_argument("--modes", type=comma_list(str), default="oob,ib")
    p_modes.add_argument("--seeds", type=comma_list(int),
                         default=",".join(str(s) for s in DEFAULT_MODE_SEEDS))
    p_modes.add_argument("--period-us", type=int, default=10_000)

    p_sweep = _subcommand(sub, "period-sweep", cmd_period_sweep, "feedback period sweep")
    p_sweep.add_argument("--scheme", choices=SCHEMES, default="natcp")
    p_sweep.add_argument("--periods-us", type=comma_list(int),
                         default=",".join(str(p) for p in DEFAULT_SWEEP_PERIODS_US))

    for grid in (p_modes, p_sweep):   # the subcommands that run on a pool
        grid.add_argument("--workers", type=positive_int, default=os.cpu_count() or 1)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except FileNotFoundError as exc:
        print(f"natsim: missing input: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except (ConfigError, TraceError) as exc:
        print(f"natsim: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # controlled failure surface for scripting
        print(f"natsim: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
