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
import contextlib
import csv
import errno
import functools
import os
import sys
from pathlib import Path

from .cc import SCHEMES
from .config import ConfigError, SimConfig, build_config
from .emulink import EVENT_KINDS
from .engine import FEEDBACK_ROW, SUMMARY_COLUMNS, run_simulation
from .trace import TraceError

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_MISSING_INPUT = 3

DEFAULT_SWEEP_PERIODS_US = (5_000, 10_000, 25_000, 50_000, 100_000)
DEFAULT_MODE_SEEDS = (1, 2, 3, 4, 5)
# feedback-modes' own defaults: under the config file, --set and the flags
MODE_DEFAULTS = {"duration_s": "30", "assist.period_us": "10000"}
EVENT_ROW = "%d,%s,%d,%d,%s\r\n"   # time_us, kind, flow, seq, qdelay_us
# RunResult.feedback_log's tuple, cell for cell
FEEDBACK_COLUMNS = ("flow", "seq", "t_emitted_us", "t_arrived_us", "bl_bw_bps", "min_rtt_us")


# ---------------------------------------------------------------------------
# formatting / io helpers

def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):  # writes inf, -inf and nan as such
        return f"{value:.6g}"
    return str(value)


def open_output(path: Path):
    """path opened for writing, its directory made first if missing."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", newline="")


def write_csv(path: Path, columns: tuple, rows: list[dict]) -> None:
    with open_output(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([format_cell(row.get(col)) for col in columns])


def output_dir(args, tables: list[str]) -> Path:
    """The output directory, checked before any run with every file the
    subcommand writes: its ``tables`` in the directory, and run's two logs.
    A usage error names the first path that cannot be written: a directory
    that is a file or lies under one, or an output that is a directory (the
    output directory or one above it included) or lies under a file, or is
    or lies under another output.  The first output written makes the
    directory, so a run that fails at set-up leaves no directory."""
    path = Path(args.output_dir or os.environ.get("NATSIM_OUTPUT_DIR") or ".")
    home = path.resolve()
    logs = getattr(args, "events_csv", None), getattr(args, "feedback_csv", None)
    # the logs first: of two outputs that clash, the log is named
    outputs = [(f"output {str(path / name)!r}", (path / name).resolve())
               for name in (*logs, *tables) if name]
    try:
        if not nearest(home).is_dir():
            raise ConfigError(f"output directory {str(path)!r} is a file or lies under one")
        for i, (what, real) in enumerate(outputs):
            found = nearest(real)
            # found is real itself and a directory, or a file above it
            if home.is_relative_to(real) or found.is_dir() == (found == real):
                raise ConfigError(f"{what} is a directory or lies under a file")
            for other, taken in outputs[:i] + outputs[i + 1:]:
                if real.is_relative_to(taken):
                    raise ConfigError(f"{what} is or lies under {other}")
    except OSError as exc:   # a name too long, say
        raise ConfigError(f"{exc.filename!r}: {exc.strerror}") from None
    return path


def nearest(path: Path) -> Path:
    """path itself, or the nearest of its parents, whichever exists first.
    No lookup reaches a name under a missing directory, so a missing name
    longer than the file system there allows raises here the ``OSError``
    that making it would."""
    found = next(p for p in (path, *path.parents) if p.exists())
    if found != path and hasattr(os, "pathconf"):
        longest = max(len(os.fsencode(part)) for part in path.relative_to(found).parts)
        if 0 < os.pathconf(found, "PC_NAME_MAX") < longest:
            raise OSError(errno.ENAMETOOLONG, os.strerror(errno.ENAMETOOLONG), str(path))
    return found


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


def config_from_args(args, extra: dict[str, str] | None = None,
                     defaults: dict[str, str] | None = None) -> SimConfig:
    """The run's config: built-in defaults < ``defaults`` < the config file <
    ``--set`` < the flags < ``extra``, the subcommand's grid point."""
    overrides = parse_set_pairs(getattr(args, "set", None))
    # the flags, each of which a subcommand may lack
    for flag, key in (("trace", "trace"), ("duration", "duration_s"), ("seed", "seed"),
                      ("scheme", "scheme"), ("period_us", "assist.period_us")):
        if getattr(args, flag, None) is not None:
            overrides[key] = str(getattr(args, flag))
    # the event log is recorded exactly when a run writes it out
    overrides["log.events"] = "on" if getattr(args, "events_csv", None) else "off"
    if extra:
        overrides.update(extra)
    cfg = build_config(getattr(args, "config", None), overrides, defaults)
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
    than one run; in-process, each line prints as its run ends.  The output
    directory and every output path are checked before the first run, and
    ``args.output_dir`` set to the directory, for a ``rows_of`` that writes
    files of its own."""
    args.output_dir = output_dir(args, [name for name, _ in outputs])
    jobs = [(rows_of, cfg) for cfg in configs]
    workers = min(getattr(args, "workers", 1), len(jobs))   # a pool may start them all at once
    if workers > 1:
        # imported here: multiprocessing costs every single run its import
        from concurrent.futures import ProcessPoolExecutor
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
        write_csv(args.output_dir / name, columns, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommands

def run_rows(args, cfg: SimConfig, result) -> tuple[list[dict]]:
    """run's summary row, once the event and feedback logs it asks for are
    written to the output directory."""
    with contextlib.closing(result):
        if args.events_csv:
            # the rows csv.writer would write (no cell needs quoting), one
            # template formatted a chunk of the spooled log: the log is the
            # largest output a run makes.  A qdelay of -1 is an empty cell
            with open_output(args.output_dir / args.events_csv) as fh:
                fh.write("time_us,kind,flow,seq,qdelay_us\r\n")
                for chunk in result.event_chunks():
                    cells = chunk.tolist()
                    cells[1::5] = map(EVENT_KINDS.__getitem__, cells[1::5])
                    qdelay = cells[4::5]
                    cells[4::5] = map({-1: ""}.get, qdelay, qdelay)
                    fh.write(EVENT_ROW * (len(cells) // 5) % tuple(cells))
        if args.feedback_csv:
            write_feedback_csv(args.output_dir / args.feedback_csv, result)
    return summary_rows(cfg, result)


def write_feedback_csv(path: Path, result) -> None:
    """The feedback log's rows, one flow a digest arrival, as ``write_csv``
    writes them (an int's cell is its str, bl_bw's is ``format_cell``'s),
    written from each packed arrival in turn: nothing holds the rows."""
    with open_output(path) as fh:
        fh.write(",".join(FEEDBACK_COLUMNS) + "\r\n")
        for (t_arr, seq, t_emit, min_rtt, bl_bw), fids in zip(
                FEEDBACK_ROW.iter_unpack(result.feedback), result.feedback_fids):
            row = "{}" + f",{seq},{t_emit},{t_arr},{bl_bw:.6g},{min_rtt}\r\n"
            fh.writelines(map(row.format, fids))


def cmd_run(args) -> int:
    return run_grid(args, [config_from_args(args)], functools.partial(run_rows, args),
                    describe, [("summary.csv", SUMMARY_COLUMNS)])


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
        config_from_args(args, {"scheme": scheme, "assist.mode": mode, "seed": str(seed)},
                         MODE_DEFAULTS)
        for scheme in sorted(args.schemes) for mode in sorted(args.modes)
        for seed in sorted(args.seeds)]
    # the summary's metrics, throughput_mbps to drops
    columns = ("scheme", "mode", "seed", *SUMMARY_COLUMNS[3:11])
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

def _subcommand(sub, name: str, fn, about: str,
                schemes: str | None = None) -> argparse.ArgumentParser:
    parser = sub.add_parser(name, help=about)
    parser.set_defaults(fn=fn)
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one config key (repeatable)")
    parser.add_argument("--trace", help="trace file or const:/step:/walk: expression")
    parser.add_argument("--duration", type=float, help="run length in seconds")
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
                          schemes="natcp,tg")
    p_modes.add_argument("--modes", type=comma_list(str), default="oob,ib")
    p_modes.add_argument("--seeds", type=comma_list(int),
                         default=",".join(str(s) for s in DEFAULT_MODE_SEEDS))
    p_modes.add_argument("--period-us", type=int, help="feedback period in us (default: 10000)")

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
