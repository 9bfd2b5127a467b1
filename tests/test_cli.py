"""Config file handling, CLI subcommands, exit codes, CSV outputs."""

import csv
import math
from array import array

import pytest

from natsim import cli
from natsim.cli import (
    EXIT_MISSING_INPUT,
    EXIT_OK,
    EXIT_USAGE,
    format_cell,
    main,
    parse_set_pairs,
)
from natsim.config import ConfigError, SimConfig, build_config, parse_config_text
from natsim.emulink import EVENT_KINDS


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# -- config assembly ---------------------------------------------------------

def test_defaults():
    cfg = SimConfig()
    assert cfg.scheme == "natcp"
    assert cfg.trace == "const:12mbps"
    assert cfg.duration_s == 60.0
    assert cfg.mtu == 1500
    assert cfg.assist.period_us == 50_000
    assert cfg.path.down_owd_us + cfg.path.up_owd_us == 8_957


def test_config_file_then_override_precedence(tmp_path):
    conf = tmp_path / "run.conf"
    conf.write_text(
        "# comment lines are fine\n"
        "scheme = cubic\n"
        "duration_s = 2.0\n"
        "path.down_owd_us = 3000\n"
        "assist.mode = ib\n"
    )
    cfg = build_config(str(conf), {"duration_s": "5.0", "flows.start_s": "0,1.5"})
    assert cfg.scheme == "cubic"            # from file
    assert cfg.duration_s == 5.0            # override beats file
    assert cfg.path.down_owd_us == 3000
    assert cfg.assist.mode == "ib"
    assert cfg.flow_starts_s == (0.0, 1.5)
    assert [f.ue_id for f in cfg.flows()] == [0, 0]   # lone UE entry broadcast


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        build_config(None, {"no.such.key": "1"})


def test_bad_value_rejected():
    with pytest.raises(ConfigError):
        build_config(None, {"duration_s": "soon"})
    with pytest.raises(ConfigError):
        build_config(None, {"assist.suppress_after_us": "maybe"})


def test_validation_collects_errors():
    cfg = SimConfig(scheme="bogus", duration_s=-1.0)
    problems = cfg.validate()
    assert any("scheme" in p for p in problems)
    assert any("duration" in p for p in problems)
    with pytest.raises(ConfigError):
        cfg.require_valid()


def test_flow_lists_must_align():
    cfg = build_config(None, {"flows.start_s": "0,1", "flows.ue": "0,1,2"})
    with pytest.raises(ConfigError):
        cfg.require_valid()


def test_parse_config_text_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_config_text("this is not key value\n")
    for section in ("extra", "run", "DEFAULT"):
        with pytest.raises(ConfigError, match=section):
            parse_config_text(f"scheme = natcp\n[{section}]\nscheme = cubic\n")


def test_parse_set_pairs():
    assert parse_set_pairs(["a=1", "b.c = x y "]) == {"a": "1", "b.c": "x y"}
    with pytest.raises(ConfigError):
        parse_set_pairs(["novalue"])


def test_format_cell():
    assert format_cell(None) == ""
    assert format_cell(math.inf) == "inf"
    assert format_cell(1.23456789) == "1.23457"
    assert format_cell(12) == "12"
    assert format_cell("natcp") == "natcp"


# -- exit codes ---------------------------------------------------------------

def test_missing_trace_file_exit_code(tmp_path):
    rc = main(["run", "--trace", str(tmp_path / "absent.trace"),
               "--duration", "1", "-o", str(tmp_path)])
    assert rc == EXIT_MISSING_INPUT


def test_bad_scheme_exit_code(tmp_path):
    rc = main(["run", "--set", "scheme=bogus", "--duration", "1",
               "-o", str(tmp_path)])
    assert rc == EXIT_USAGE


def test_malformed_trace_file_exit_code(tmp_path):
    bad = tmp_path / "bad.trace"
    bad.write_text("10\nnope\n")
    rc = main(["run", "--trace", str(bad), "--duration", "1",
               "-o", str(tmp_path)])
    assert rc == EXIT_USAGE


@pytest.mark.parametrize("trace", ["step:12mbps@5.5ms", "step:12mbps@xms"])
def test_malformed_step_hold_exit_code(tmp_path, trace):
    rc = main(["run", "--trace", trace, "--duration", "1", "-o", str(tmp_path)])
    assert rc == EXIT_USAGE


@pytest.mark.parametrize("args", [
    ["--trace", "const:13gbps"],
    ["--set", "mtu=1", "--trace", "const:75mbps"],
    ["--trace", "step:12mbps@100ms,13gbps@100ms"],
    ["--trace", "walk:1mbps-13gbps@100ms"],
])
def test_sub_microsecond_spacing_exits_at_set_up(tmp_path, capsys, args):
    rc = main(["run", *args, "--duration", "20", "-o", str(tmp_path)])
    assert rc == EXIT_USAGE
    assert "bit/s puts more than one" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("settings,key", [
    ("cc.alpha=1e300", "cc.alpha"),               # the feedback window overflowed
    ("path.uplink_rate_bps=1e-299", "path.uplink_rate_bps"),  # the serialization delay did
    # the feedback's serialization delay did too
    pytest.param("assist.feedback_size_bytes=" + "9" * 320,
                 "assist.feedback_size_bytes", id="assist.feedback_size_bytes=320 nines"),
    # a time past the int64 range did when it was recorded; the late start and
    # the periods beyond the run keep an unbounded run short
    pytest.param("duration_s=9300000000000.5 flows.start_s=9300000000000 "
                 f"assist.period_us={'9' * 20} assist.probe_interval_us={'9' * 20}",
                 "duration_s", id="duration_s=9.3e12"),
])
def test_overflowing_value_exits_at_validation(tmp_path, capsys, settings, key):
    # space-separated --set pairs; each case may override duration_s
    pairs = ["duration_s=1", *settings.split()]
    rc = main(["run", *(arg for pair in pairs for arg in ("--set", pair)), "-o", str(tmp_path)])
    assert rc == EXIT_USAGE
    assert key in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_config_file_section_exit_code(tmp_path):
    # a [section] line would otherwise drop every key after it
    path = tmp_path / "run.ini"
    path.write_text("scheme = natcp\n[extra]\nscheme = cubic\nduration_s = 5\n")
    rc = main(["run", "--config", str(path), "-o", str(tmp_path)])
    assert rc == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["feedback-modes", "--seeds", "1,x"],
    ["period-sweep", "--periods-us", "5000,abc"],
])
def test_malformed_list_flag_exits_before_any_run(tmp_path, recorded_runs,
                                                  capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--duration", "1", "--workers", "1", "-o", str(tmp_path)])
    assert exc.value.code == EXIT_USAGE
    assert "invalid int list value" in capsys.readouterr().err
    assert recorded_runs == []


@pytest.mark.parametrize("command", ["single-flow", "fairness"])
def test_bad_scheme_in_list_exits_before_any_run(tmp_path, recorded_runs,
                                                 capsys, command):
    rc = main([command, "--schemes", "natcp,bogus", "--duration", "1",
               "-o", str(tmp_path)])
    assert rc == EXIT_USAGE
    assert recorded_runs == []
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


# -- subcommands ---------------------------------------------------------------

def test_run_writes_summary_and_logs(tmp_path, capsys):
    rc = main([
        "run", "--scheme", "natcp", "--duration", "1", "-o", str(tmp_path),
        "--events-csv", "events.csv", "--feedback-csv", "feedback.csv",
    ])
    assert rc == EXIT_OK
    summary = read_csv(tmp_path / "summary.csv")
    assert summary[0] == [
        "scheme", "trace", "duration_s", "throughput_mbps", "goodput_mbps",
        "avg_qdelay_ms", "p95_qdelay_ms", "power", "power95", "retrans",
        "drops", "feedback_overhead_kbps",
    ]
    assert len(summary) == 2
    assert summary[1][0] == "natcp"

    events = read_csv(tmp_path / "events.csv")
    assert events[0] == ["time_us", "kind", "flow", "seq", "qdelay_us"]
    kinds = {row[1] for row in events[1:]}
    assert {"snd", "enq", "deq", "dlv", "ack"} <= kinds
    deq = next(row for row in events[1:] if row[1] == "deq")
    assert deq[4] != ""                     # queueing delay recorded at dequeue
    snd = next(row for row in events[1:] if row[1] == "snd")
    assert snd[4] == ""                     # no queue delay before the queue

    feedback = read_csv(tmp_path / "feedback.csv")
    assert feedback[0] == ["flow", "seq", "t_emitted_us", "t_arrived_us",
                           "bl_bw_bps", "min_rtt_us"]
    # 50 ms cadence over 1 s; the final emission arrives past the horizon
    assert len(feedback) == 1 + 19
    assert capsys.readouterr().out.startswith("natcp")


@pytest.fixture
def recorded_runs(monkeypatch):
    """(cfg, result) of every run the CLI makes."""
    runs = []
    real = cli.run_simulation

    def recording(cfg):
        runs.append((cfg, real(cfg)))
        return runs[-1][1]

    monkeypatch.setattr(cli, "run_simulation", recording)
    return runs


def test_event_log_recorded_exactly_when_written(tmp_path, recorded_runs):
    assert main(["run", "--duration", "1", "-o", str(tmp_path / "plain"),
                 "--set", "log.events=on"]) == EXIT_OK
    assert main(["run", "--duration", "1", "-o", str(tmp_path / "logged"),
                 "--events-csv", "events.csv"]) == EXIT_OK
    assert main(["single-flow", "--schemes", "natcp,cubic", "--duration", "1",
                 "-o", str(tmp_path)]) == EXIT_OK
    assert main(["fairness", "--schemes", "natcp", "--duration", "1",
                 "-o", str(tmp_path)]) == EXIT_OK
    flags = [cfg.log_events for cfg, _ in recorded_runs]
    assert flags == [False, True, False, False, False]
    assert all(res.event_log == [] for cfg, res in recorded_runs
               if not cfg.log_events)

    assert not (tmp_path / "plain" / "events.csv").exists()
    events = read_csv(tmp_path / "logged" / "events.csv")
    assert events[0] == ["time_us", "kind", "flow", "seq", "qdelay_us"]
    deq = [int(row[4]) for row in events[1:] if row[1] == "deq"]
    assert deq == list(recorded_runs[1][1].qdelay_samples_us)


def test_events_csv_bytes_match_csv_writer(tmp_path, monkeypatch):
    # every row kind, both qdelay forms (-1 writes an empty cell, 0 a zero)
    # and flow ids of two digits
    log = [(0, "snd", 12, 0, -1), (2_500, "enq", 12, 0, -1),
           (2_500, "drop", 3, 1500, -1), (3_000, "deq", 12, 0, 0),
           (4_000, "deq", 10, 3000, 1_000), (4_000, "airdrop", 10, 3000, -1),
           (3_000, "dlv", 12, 0, -1), (9_500, "ack", 12, 1500, -1)]
    real = cli.run_simulation

    def logged(cfg):
        result = real(cfg)
        result.events = array("q", [
            v for t, kind, flow, seq, qdelay in log
            for v in (t, EVENT_KINDS.index(kind), flow, seq, qdelay)])
        return result

    monkeypatch.setattr(cli, "run_simulation", logged)
    assert main(["run", "--duration", "0.1", "-o", str(tmp_path),
                 "--events-csv", "events.csv"]) == EXIT_OK
    expected = tmp_path / "expected.csv"
    with open(expected, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("time_us", "kind", "flow", "seq", "qdelay_us"))
        for t, kind, flow, seq, qdelay in log:
            writer.writerow((t, kind, flow, seq, qdelay if qdelay >= 0 else ""))
    assert (tmp_path / "events.csv").read_bytes() == expected.read_bytes()


def test_output_dir_from_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("NATSIM_OUTPUT_DIR", str(tmp_path / "out"))
    rc = main(["run", "--duration", "1"])
    assert rc == EXIT_OK
    assert (tmp_path / "out" / "summary.csv").exists()


def test_single_flow_multiple_schemes(tmp_path):
    rc = main(["single-flow", "--schemes", "natcp,cubic",
               "--duration", "1", "-o", str(tmp_path)])
    assert rc == EXIT_OK
    rows = read_csv(tmp_path / "summary.csv")
    assert [r[0] for r in rows[1:]] == ["natcp", "cubic"]


def test_fairness_outputs_per_flow_rows(tmp_path):
    rc = main(["fairness", "--schemes", "natcp", "--duration", "2",
               "--second-start", "0.5", "-o", str(tmp_path)])
    assert rc == EXIT_OK
    rows = read_csv(tmp_path / "fairness.csv")
    assert rows[0] == ["scheme", "flow", "ue", "start_s", "goodput_mbps",
                       "overlap_goodput_mbps", "retrans", "drops"]
    assert len(rows) == 3                   # header + two flows
    assert [r[1] for r in rows[1:]] == ["0", "1"]
    assert rows[2][3] == "0.5"
    # both flows share one queue: overlap goodputs are both positive
    assert float(rows[1][5]) > 0 and float(rows[2][5]) > 0


def test_feedback_modes_grid(tmp_path):
    rc = main(["feedback-modes", "--schemes", "natcp", "--modes", "oob,ib",
               "--seeds", "1,2", "--duration", "1", "--workers", "1",
               "-o", str(tmp_path)])
    assert rc == EXIT_OK
    rows = read_csv(tmp_path / "modes.csv")
    assert rows[0][:3] == ["scheme", "mode", "seed"]
    assert [(r[1], r[2]) for r in rows[1:]] == [
        ("ib", "1"), ("ib", "2"), ("oob", "1"), ("oob", "2")]


def test_period_sweep_parallel_workers(tmp_path):
    rc = main(["period-sweep", "--scheme", "natcp",
               "--periods-us", "25000,50000", "--duration", "1",
               "--workers", "2", "-o", str(tmp_path)])
    assert rc == EXIT_OK
    rows = read_csv(tmp_path / "sweep.csv")
    assert rows[0][0] == "period_us"
    assert [r[0] for r in rows[1:]] == ["25000", "50000"]
    # shorter feedback period costs proportionally more reverse-path overhead
    overhead = [float(r[-1]) for r in rows[1:]]
    assert overhead[0] == pytest.approx(2 * overhead[1])


@pytest.fixture
def pool_widths(monkeypatch):
    """max_workers of every pool the CLI asks for; the runs stay in-process."""
    widths = []

    class InlinePool:
        def __init__(self, max_workers):
            widths.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    return widths


@pytest.mark.parametrize("workers, periods, widths", [
    (["--workers", "64"], "20000,50000", [2]),
    (["--workers", "2"], "20000,50000,100000", [2]),
    (["--workers", "8"], "50000", []),    # one run needs no pool
    ([], "20000,50000", [2]),             # the default, os.cpu_count() = 64
])
def test_pool_is_never_wider_than_the_runs(tmp_path, monkeypatch, pool_widths,
                                           workers, periods, widths):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    rc = main(["period-sweep", "--periods-us", periods, "--duration", "0.2",
               *workers, "-o", str(tmp_path)])
    assert rc == EXIT_OK
    assert pool_widths == widths
    assert len(read_csv(tmp_path / "sweep.csv")) == 1 + len(periods.split(","))


@pytest.mark.parametrize("command", ["period-sweep", "feedback-modes"])
@pytest.mark.parametrize("workers", ["0", "-3", "two"])
def test_workers_below_one_exits_before_any_run(tmp_path, recorded_runs,
                                                pool_widths, capsys,
                                                command, workers):
    with pytest.raises(SystemExit) as exc:
        main([command, "--duration", "1", "--workers", workers,
              "-o", str(tmp_path)])
    assert exc.value.code == EXIT_USAGE
    assert "--workers" in capsys.readouterr().err
    assert recorded_runs == [] and pool_widths == []


def test_seeded_rerun_is_byte_identical(tmp_path):
    args = ["run", "--duration", "1", "--seed", "9",
            "--set", "path.loss_prob=0.02", "--events-csv", "events.csv"]
    main(args + ["-o", str(tmp_path / "a")])
    main(args + ["-o", str(tmp_path / "b")])
    for name in ("summary.csv", "events.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b
