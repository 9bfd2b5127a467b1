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


def run_job(cfg: SimConfig) -> dict:
    """Worker for process-pool fan-out: one run, small summary dict back."""
    result = run_simulation(cfg)
    row = result.summary_row()
    row["seed"] = cfg.seed
    row["mode"] = cfg.assist.mode
    row["period_us"] = cfg.assist.period_us
    return row


def run_many(configs: list[SimConfig], workers: int) -> list[dict]:
    """Run configs, in parallel when asked; results keep submission order."""
    workers = min(workers, len(configs))   # a pool may start them all at once
    if workers <= 1:
        return [run_job(cfg) for cfg in configs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_job, configs))


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
    rows = []
    for cfg in configs:
        row = run_simulation(cfg).summary_row()
        rows.append(row)
        print(describe(row))
    write_csv(output_dir(args) / "summary.csv", SUMMARY_COLUMNS, rows)
    return EXIT_OK


def cmd_fairness(args) -> int:
    configs = []
    for scheme in args.schemes:
        cfg = config_from_args(args, {"scheme": scheme})
        second = args.second_start if args.second_start is not None \
            else cfg.duration_s / 4
        cfg.flow_starts_s = (0.0, second)
        cfg.flow_ues = (0, 0)
        cfg.require_valid()
        configs.append(cfg)
    summary_rows = []
    flow_rows = []
    for cfg in configs:
        result = run_simulation(cfg)
        row = result.summary_row()
        summary_rows.append(row)
        t0 = result.flows[1].start_us
        for fs in result.flows:
            flow_rows.append({
                "scheme": cfg.scheme,
                "flow": fs.flow_id,
                "ue": fs.ue_id,
                "start_s": fs.start_us / 1e6,
                "goodput_mbps": fs.unique_bytes * 8 / cfg.duration_us,
                "overlap_goodput_mbps": result.flow_goodput_mbps(
                    fs.flow_id, t0, cfg.duration_us),
                "retrans": fs.retransmits,
                "drops": fs.drops,
            })
        print(describe(row))
    outdir = output_dir(args)
    write_csv(outdir / "summary.csv", SUMMARY_COLUMNS, summary_rows)
    write_csv(
        outdir / "fairness.csv",
        ("scheme", "flow", "ue", "start_s", "goodput_mbps",
         "overlap_goodput_mbps", "retrans", "drops"),
        flow_rows,
    )
    return EXIT_OK


def cmd_feedback_modes(args) -> int:
    configs = []
    for scheme in args.schemes:
        for mode in args.modes:
            for seed in args.seeds:
                cfg = config_from_args(args, {
                    "scheme": scheme,
                    "assist.mode": mode,
                    "assist.period_us": str(args.period_us),
                    "seed": str(seed),
                })
                configs.append(cfg)
    rows = run_many(configs, args.workers)
    rows.sort(key=lambda r: (r["scheme"], r["mode"], r["seed"]))
    columns = ("scheme", "mode", "seed", "throughput_mbps", "goodput_mbps",
               "avg_qdelay_ms", "p95_qdelay_ms", "power", "power95",
               "retrans", "drops")
    write_csv(output_dir(args) / "modes.csv", columns, rows)
    for row in rows:
        print(f"{row['scheme']:<8} {row['mode']:<4} seed={row['seed']} "
              f"power95={format_cell(row['power95'])}")
    return EXIT_OK


def cmd_period_sweep(args) -> int:
    configs = []
    for period in args.periods_us:
        cfg = config_from_args(args, {"assist.period_us": str(period)})
        configs.append(cfg)
    rows = run_many(configs, args.workers)
    rows.sort(key=lambda r: r["period_us"])
    columns = ("period_us",) + SUMMARY_COLUMNS
    write_csv(output_dir(args) / "sweep.csv", columns, rows)
    for row in rows:
        print(f"period={row['period_us']}us "
              f"thr={format_cell(row['throughput_mbps'])}Mbps "
              f"p95={format_cell(row['p95_qdelay_ms'])}ms "
              f"power95={format_cell(row['power95'])}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser

def _add_common(parser: argparse.ArgumentParser, default_duration=None) -> None:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="natsim",
        description="Trace-driven simulator for network-assisted congestion control.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one simulation")
    _add_common(p_run)
    p_run.add_argument("--scheme", choices=SCHEMES)
    p_run.add_argument("--events-csv", metavar="NAME",
                       help="also write per-packet event log CSV")
    p_run.add_argument("--feedback-csv", metavar="NAME",
                       help="also write feedback message log CSV")
    p_run.set_defaults(fn=cmd_run)

    p_single = sub.add_parser("single-flow", help="one flow, several schemes")
    _add_common(p_single)
    p_single.add_argument("--schemes", type=comma_list(str),
                          default=",".join(SCHEMES),
                          help="comma-separated scheme list")
    p_single.set_defaults(fn=cmd_single_flow)

    p_fair = sub.add_parser("fairness", help="two staggered flows per scheme")
    _add_common(p_fair)
    p_fair.add_argument("--schemes", type=comma_list(str),
                        default="natcp,nacubic,cubic",
                        help="comma-separated scheme list")
    p_fair.add_argument("--second-start", type=float, metavar="SECONDS",
                        help="start time of the second flow "
                             "(default: duration/4)")
    p_fair.set_defaults(fn=cmd_fairness)

    p_modes = sub.add_parser("feedback-modes",
                             help="out-of-band vs in-band feedback comparison")
    _add_common(p_modes, default_duration=30.0)
    p_modes.add_argument("--schemes", type=comma_list(str), default="natcp,tg")
    p_modes.add_argument("--modes", type=comma_list(str), default="oob,ib")
    p_modes.add_argument("--seeds", type=comma_list(int),
                         default=",".join(str(s) for s in DEFAULT_MODE_SEEDS))
    p_modes.add_argument("--period-us", type=int, default=10_000)
    p_modes.add_argument("--workers", type=positive_int, default=os.cpu_count() or 1)
    p_modes.set_defaults(fn=cmd_feedback_modes)

    p_sweep = sub.add_parser("period-sweep", help="feedback period sweep")
    _add_common(p_sweep)
    p_sweep.add_argument("--scheme", choices=SCHEMES, default="natcp")
    p_sweep.add_argument("--periods-us", type=comma_list(int),
                         default=",".join(str(p) for p in DEFAULT_SWEEP_PERIODS_US))
    p_sweep.add_argument("--workers", type=positive_int, default=os.cpu_count() or 1)
    p_sweep.set_defaults(fn=cmd_period_sweep)

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
