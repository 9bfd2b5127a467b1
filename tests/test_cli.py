"""Config file handling, CLI subcommands, exit codes, CSV outputs."""

import argparse
import concurrent.futures
import contextlib
import csv
import hashlib
import io
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from array import array
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import natsim
from natsim import cli, config
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
from natsim.engine import EVENT_CHUNK_ROWS, Simulation


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


def test_a_non_finite_duration_exits_2_with_one_message(tmp_path, capsys):
    rc = main(["run", "--duration", "nan", "-o", str(tmp_path / "out")])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == "natsim: duration_s must be finite\n"


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
    assert format_cell(-math.inf) == "-inf"
    assert format_cell(1.23456789) == "1.23457"
    assert format_cell(12) == "12"
    assert format_cell("natcp") == "natcp"


# -- exit codes ---------------------------------------------------------------

def test_missing_trace_file_exit_code(tmp_path):
    rc = main(["run", "--trace", str(tmp_path / "absent.trace"),
               "--duration", "1", "-o", str(tmp_path)])
    assert rc == EXIT_MISSING_INPUT


def test_missing_config_file_exit_code(tmp_path):
    rc = main(["run", "--config", str(tmp_path / "absent.conf"),
               "--duration", "1", "-o", str(tmp_path)])
    assert rc == EXIT_MISSING_INPUT


@pytest.mark.parametrize("args", [
    ["--trace", ""],
    ["--trace", "  "],
    ["--set", "trace="],
    ["--config", "{conf}"],
], ids=["flag", "flag-spaces", "set", "config"])
def test_empty_trace_exits_2(tmp_path, capsys, args):
    # an empty trace names neither an expression nor a file: it must not
    # fall back to the default trace, nor be read as the current directory
    conf = tmp_path / "run.conf"
    conf.write_text("trace =\n")
    argv = [arg.format(conf=conf) for arg in args]
    rc = main(["run", *argv, "--duration", "1", "-o", str(tmp_path / "out")])
    assert rc == EXIT_USAGE
    assert "trace must not be empty" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["--trace", "--config"])
def test_a_directory_as_input_exits_2(tmp_path, capsys, kind):
    rc = main(["run", kind, str(tmp_path), "--duration", "1", "-o", str(tmp_path / "out")])
    assert rc == EXIT_USAGE
    assert f"natsim: {tmp_path}: cannot be read" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["--trace", "--config"])
def test_an_unreadable_file_exits_2(tmp_path, capsys, monkeypatch, kind):
    # a process running as root reads a file whatever its mode, so the
    # read itself is refused
    path = tmp_path / "locked"
    path.write_text("10\n")

    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    monkeypatch.setattr(Path, "read_text", refuse)
    rc = main(["run", kind, str(path), "--duration", "1", "-o", str(tmp_path / "out")])
    assert rc == EXIT_USAGE
    assert f"natsim: {path}: cannot be read: Permission denied" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("kind,body,line", [
    ("--trace", b"10\n20\n\xff30\n", 3),
    ("--config", b"scheme = natcp\n# \xff\n", 2),
])
def test_undecodable_byte_names_its_line_and_exits_2(tmp_path, capsys, kind, body, line):
    # the file is read as UTF-8 whatever the locale; 0xff is never UTF-8
    path = tmp_path / "bad"
    path.write_bytes(body)
    rc = main(["run", kind, str(path), "--duration", "1", "-o", str(tmp_path / "out")])
    assert rc == EXIT_USAGE
    assert f"line {line}: byte 0xff" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


# a rate of 309 digits parses to inf; int() reads at most 4,300 digits
INF_RATE, LONG_INT = "9" * 309, "1" * 4301
UNBUILDABLE_TRACES = {
    "const-inf": ("const:" + INF_RATE, "rate inf bit/s is not a finite number"),
    "step-rate-inf": (f"step:12mbps@10ms,{INF_RATE}@10ms", "rate inf bit/s is not a finite"),
    "walk-bound-inf": (f"walk:1mbps-{INF_RATE}@10ms", "rate inf bit/s is not a finite"),
    "step-hold-long": (f"step:1mbps@{LONG_INT}ms", "step segment 1's hold has too many digits"),
    "walk-step-long": (f"walk:1mbps-2mbps@{LONG_INT}ms", "walk step has too many digits"),
    "walk-seed-long": (f"walk:1mbps-2mbps@10ms:{LONG_INT}", "walk seed has too many digits"),
    "all-outage": ("step:0mbps@500ms,0.4bps@20ms", "no delivery opportunity in 520 ms"),
    "rounds-to-no-packet": ("const:0.3bps", "no delivery opportunity"),
}


@pytest.mark.parametrize("trace,message", UNBUILDABLE_TRACES.values(), ids=UNBUILDABLE_TRACES)
def test_a_trace_whose_schedule_cannot_be_built_exits_2_at_set_up(tmp_path, capsys,
                                                                   trace, message):
    rc = main(["run", "--trace", trace, "--duration", "1", "-o", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == EXIT_USAGE
    assert message in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


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


def test_an_mtu_past_its_bound_exits_2_before_a_logged_run(tmp_path, capsys, recorded_runs):
    # the event log packs a row's byte seq (packets x mtu) as an int64; at
    # this mtu it passed 2**63 after about 9,200 packets, and the run exited 1
    out = tmp_path / "out"
    rc = main(["run", "--trace", "const:200000000000gbps", "--duration", "1",
               "--set", "mtu=1000000000000000",
               "--set", "queue.capacity_bytes=100000000000000000",
               "--events-csv", "ev.csv", "-o", str(out)])
    captured = capsys.readouterr()
    assert rc == EXIT_USAGE
    assert "mtu must be at most 1,000,000" in captured.err
    assert captured.out == ""
    assert recorded_runs == []
    assert not out.exists()


@pytest.mark.parametrize("trace", ["file", "step:12mbps@10ms,0mbps@10ms"])
@pytest.mark.parametrize("duration", ["1e-7", "5e-7"])
def test_sub_microsecond_duration_exits_at_validation(tmp_path, capsys, trace, duration):
    # a duration_us of 0 divided by zero when the summary row was computed
    if trace == "file":
        trace = tmp_path / "three.trace"
        trace.write_text("0\n1\n2\n")
    rc = main(["run", "--duration", duration, "--trace", str(trace),
               "-o", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == EXIT_USAGE
    assert "duration_s must be at least 1 us" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()
    with pytest.raises(ConfigError, match="duration_s"):
        Simulation(SimConfig(duration_s=float(duration), trace=str(trace)))


@pytest.mark.parametrize("trace,duration", [
    ("const:12mbps", "1e-6"), ("const:1gbps", "0.0004"), ("const:1gbps", "0.0005")])
def test_a_run_shorter_than_a_millisecond_replays_its_opportunities(tmp_path, trace, duration):
    # the schedule once lasted the run rounded to whole milliseconds: 0 ms,
    # so no opportunity, where the 1 ms cycle now starts with one at t = 0
    assert main(["run", "--trace", trace, "--duration", duration,
                 "-o", str(tmp_path)]) == EXIT_OK


@pytest.mark.parametrize("command", [
    ["run"], ["period-sweep", "--workers", "1", "--periods-us", "5000,10000"]],
    ids=["run", "period-sweep"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under-a-file"])
@pytest.mark.parametrize("via", ["-o", "env"])
def test_an_output_path_that_cannot_be_a_directory_exits_2_before_any_run(
        tmp_path, capsys, monkeypatch, recorded_runs, command, under, via):
    path = tmp_path / "taken"
    path.write_text("")
    out = path / "sub" if under else path
    if via == "env":
        monkeypatch.setenv("NATSIM_OUTPUT_DIR", str(out))
    argv = [*command, "--duration", "0.1", *(["-o", str(out)] if via == "-o" else [])]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert f"output directory {str(out)!r}" in captured.err
    assert captured.out == ""
    assert recorded_runs == []


SWEEP = ["period-sweep", "--workers", "1", "--periods-us", "5000,10000"]


@pytest.mark.parametrize("argv, table_dir, named", [
    (["run", "--events-csv", "."], None, "out"),
    (["run", "--feedback-csv", ".."], None, "out/.."),
    (["run", "--events-csv", "summary.csv"], None, "out/summary.csv"),
    (["run", "--feedback-csv", "summary.csv/x"], None, "out/summary.csv/x"),
    (["run", "--events-csv", "../taken/x"], None, "out/../taken/x"),
    (["run", "--events-csv", "log.csv", "--feedback-csv", "log.csv"], None, "out/log.csv"),
    (["run", "--events-csv", "a/b.csv", "--feedback-csv", "a"], None, "out/a/b.csv"),
    (["run", "--events-csv", "e.csv"], "summary.csv", "out/summary.csv"),
    (["run", "--feedback-csv", "f.csv"], "f.csv", "out/f.csv"),
    (SWEEP, "sweep.csv", "out/sweep.csv"),
], ids=["events-is-the-dir", "feedback-holds-the-dir", "events-is-the-summary",
        "feedback-under-the-summary", "events-under-a-file", "logs-share-a-name",
        "events-under-feedback", "summary-is-a-dir", "feedback-is-a-dir", "sweep-is-a-dir"])
def test_an_output_file_that_cannot_be_written_exits_2_before_any_run(
        tmp_path, capsys, recorded_runs, argv, table_dir, named):
    """Every output path is checked with the directory, so a run is never
    made only to fail at its write: the error names the path, and no
    directory is made."""
    (tmp_path / "taken").write_text("")
    if table_dir is not None:
        (tmp_path / "out" / table_dir).mkdir(parents=True)
    before = sorted(tmp_path.rglob("*"))
    assert main([*argv, "--duration", "0.1", "-o", str(tmp_path / "out")]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert f"output {str(tmp_path / named)!r} " in captured.err
    assert captured.out == ""
    assert recorded_runs == []
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.skipif(not hasattr(os, "pathconf"), reason="no pathconf")
@pytest.mark.parametrize("argv, named", [
    (["run", "--events-csv", "{long}"], "out/{long}"),
    (["run", "--feedback-csv", "logs/{long}/f.csv"], "out/logs/{long}/f.csv"),
    (["run", "-o", "out/{long}"], "out/{long}"),
    ([*SWEEP, "-o", "out/{long}/sub"], "out/{long}/sub"),
], ids=["events", "feedback-dir", "run-dir", "sweep-dir"])
def test_a_name_too_long_under_a_missing_directory_exits_2_before_any_run(
        tmp_path, capsys, monkeypatch, recorded_runs, argv, named):
    """No lookup reaches a name under a directory that does not exist yet,
    so its length is checked against the file system's limit."""
    long = "x" * (os.pathconf(tmp_path, "PC_NAME_MAX") + 1)
    argv = [arg.format(long=long) for arg in argv]
    if "-o" not in argv:
        argv += ["-o", "out"]
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--duration", "0.1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert f"{str(tmp_path / named.format(long=long))!r}: File name too long" in captured.err
    assert captured.out == ""
    assert recorded_runs == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not hasattr(os, "pathconf"), reason="no pathconf")
def test_a_name_as_long_as_the_file_system_allows_is_written(tmp_path):
    longest = "x" * os.pathconf(tmp_path, "PC_NAME_MAX")
    assert main(["run", "--events-csv", longest, "--duration", "0.1",
                 "-o", str(tmp_path / "out")]) == EXIT_OK
    assert (tmp_path / "out" / longest).is_file()


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


def feedback_csv_as_rows(path, result):
    """The feedback CSV as the run command wrote it before it streamed:
    one dict a flow a digest arrival, through ``write_csv``."""
    cli.write_csv(path, cli.FEEDBACK_COLUMNS,
                  [dict(zip(cli.FEEDBACK_COLUMNS, row)) for row in result.feedback_log])


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("mode", ["oob", "ib"])
def test_the_feedback_csv_streams_the_bytes_of_one_dict_a_row(tmp_path, mode):
    # 48 flows on 7 UEs, starting over the first half second: each UE's
    # share of the capacity, bl_bw, needs all six significant digits
    cfg = build_config(None, {
        "scheme": "nacubic", "trace": "const:48mbps", "duration_s": "2", "seed": "1",
        "assist.mode": mode, "assist.period_us": "20000",
        "flows.start_s": ",".join(str(i / 100) for i in range(48)),
        "flows.ue": ",".join(str(i // 7) for i in range(48))})
    result = Simulation(cfg).run()
    rows = len(result.feedback_log)
    assert rows > (4_000 if mode == "oob" else 600)
    cli.write_feedback_csv(tmp_path / "warm-up.csv", result)   # one-off allocations
    streamed = traced_peak(cli.write_feedback_csv, tmp_path / "feedback.csv", result)
    rowwise = traced_peak(feedback_csv_as_rows, tmp_path / "rows.csv", result)
    assert (tmp_path / "feedback.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    # the row-wise writer holds every row at once, boxed: over 100 bytes a row
    assert streamed < 64 * 1024 < rowwise
    # the run command writes the same file
    args = argparse.Namespace(events_csv=None, feedback_csv="run.csv", output_dir=tmp_path)
    cli.run_rows(args, cfg, result)
    assert (tmp_path / "run.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


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
    # and flow ids of two digits, repeated past one reader chunk, so a full
    # chunk and a partial one are both formatted
    rows = [(0, "snd", 12, 0, -1), (2_500, "enq", 12, 0, -1),
            (2_500, "drop", 3, 1500, -1), (3_000, "deq", 12, 0, 0),
            (4_000, "deq", 10, 3000, 1_000), (4_000, "airdrop", 10, 3000, -1),
            (3_000, "dlv", 12, 0, -1), (9_500, "ack", 12, 1500, -1)]
    log = [(t + 10_000 * i, kind, flow, seq + i, qdelay)
           for i in range(EVENT_CHUNK_ROWS // len(rows) + 3)
           for t, kind, flow, seq, qdelay in rows]
    assert EVENT_CHUNK_ROWS < len(log) < 2 * EVENT_CHUNK_ROWS
    real = cli.run_simulation

    def logged(cfg):
        result = real(cfg)
        result.close()
        spool = tempfile.TemporaryFile()
        spool.write(array("q", [
            v for t, kind, flow, seq, qdelay in log
            for v in (t, EVENT_KINDS.index(kind), flow, seq, qdelay)]))
        result.events = spool
        assert [len(chunk) for chunk in result.event_chunks()] == [
            5 * EVENT_CHUNK_ROWS, 5 * (len(log) - EVENT_CHUNK_ROWS)]
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


@pytest.mark.parametrize("argv, file, want", [
    ([], None, (30.0, 10_000)),                           # feedback-modes' own
    (["--config", "{conf}"], "duration_s = 5\nassist.period_us = 20000\n", (5.0, 20_000)),
    (["--config", "{conf}", "--set", "duration_s=7", "--set", "assist.period_us=30000"],
     "duration_s = 5\nassist.period_us = 20000\n", (7.0, 30_000)),
    (["--config", "{conf}", "--set", "duration_s=7", "--set", "assist.period_us=30000",
      "--duration", "2", "--period-us", "40000"],
     "duration_s = 5\nassist.period_us = 20000\n", (2.0, 40_000)),
], ids=["defaults", "file-wins", "set-wins", "flags-win"])
def test_feedback_modes_defaults_sit_under_the_file_set_and_flags(
        tmp_path, monkeypatch, argv, file, want):
    conf = tmp_path / "modes.conf"
    if file:
        conf.write_text(file)
    configs = []
    monkeypatch.setattr(cli, "run_grid",
                        lambda args, grid, *rest: configs.extend(grid) or EXIT_OK)
    assert main(["feedback-modes", "--seeds", "1,2", "--schemes", "natcp",
                 *(arg.format(conf=conf) for arg in argv)]) == EXIT_OK
    assert [(c.duration_s, c.assist.period_us) for c in configs] == [want] * 4


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


def test_importing_the_cli_leaves_the_process_pool_out():
    # a single run pays for no multiprocessing, sockets or pickle imports
    code = "import sys, natsim.cli; print('multiprocessing' in sys.modules)"
    src = str(Path(natsim.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


@pytest.fixture
def pool_widths(monkeypatch):
    """max_workers of every pool the CLI asks for; the runs stay in-process.
    ``run_grid`` imports the pool class from ``concurrent.futures`` when it
    needs one, so the fixture patches it there."""
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

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
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


# digests of the stdout and of every file -o receives, recorded before the
# four experiment subcommands shared one grid runner; the list flags are
# given out of order where the output sorts them
EXPERIMENT_DIGESTS = {
    "single-flow": (
        ["single-flow", "--duration", "0.5"],
        "e626110080cc40639a930f178921041aed949e52a19a06532b805243b08f17a1"),
    "single-flow-reordered-loss": (
        ["single-flow", "--schemes", "cubic,tg,natcp", "--duration", "0.5",
         "--set", "path.loss_prob=0.02", "--seed", "3"],
        "f2daa8ecd85217fa478d483393ebb9e92715aeee8e0468f976629d528ae44fe6"),
    "fairness": (
        ["fairness", "--duration", "1"],
        "99f69be419ce1888e6b9288b7cfddb8fd3b238164d4be573d2c21742ba6271c2"),
    "fairness-second-start-walk": (
        ["fairness", "--schemes", "nacubic,natcp", "--duration", "1",
         "--second-start", "0.3", "--trace", "walk:1mbps-24mbps@100ms"],
        "ce6cd978e18104fe290fda9a53d4ea0301a2eae350c582c1b7907fd964a8e850"),
    "feedback-modes-unsorted": (
        ["feedback-modes", "--seeds", "2,1", "--schemes", "tg,natcp",
         "--duration", "0.3", "--workers", "1",
         "--trace", "walk:1mbps-24mbps@100ms"],     # a walk per seed
        "d075ada99dbf72ead9e002f2b3be74756c475d89d5222a4ea19957cd0fdf93e3"),
    "feedback-modes-pooled": (
        ["feedback-modes", "--modes", "ib,oob", "--seeds", "1",
         "--duration", "0.3", "--workers", "2"],
        "12febdbefa37b4c620e15de760493ac00c94be17eaa5be09f879b0aeb8bebdf9"),
    "period-sweep-unsorted": (
        ["period-sweep", "--periods-us", "50000,5000,20000", "--duration", "0.3",
         "--workers", "1"],
        "7757f1918a15e43048d35a74ea6833af22a8546138c5276b5d43ceb0b961eda1"),
    "period-sweep-pooled": (
        ["period-sweep", "--scheme", "tg", "--periods-us", "25000,10000",
         "--duration", "0.3", "--workers", "2"],
        "a925969066826f661db6682147b07a90df2dcf32d19545ca4dc129f89a606086"),
}


@pytest.mark.parametrize("case", list(EXPERIMENT_DIGESTS))
def test_experiment_outputs_are_byte_identical(tmp_path, capsys, case):
    argv, expected = EXPERIMENT_DIGESTS[case]
    assert main([*argv, "-o", str(tmp_path)]) == EXIT_OK
    digest = hashlib.sha256(capsys.readouterr().out.encode())
    for path in sorted(tmp_path.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    assert digest.hexdigest() == expected


# -- exit codes as a property ----------------------------------------------------

# each grid subcommand at its smallest: in-process, one seed
SUBCOMMANDS = {
    "run": [],
    "single-flow": ["--schemes", "natcp,cubic"],
    "fairness": ["--schemes", "nacubic"],
    "feedback-modes": ["--seeds", "1", "--workers", "1"],
    "period-sweep": ["--periods-us", "5000,20000", "--workers", "1"],
}


def edge_values(key: str) -> list[str]:
    *_, high, choices = config._SETTINGS[key]
    values = ["0", "1", "-1", "nan", "inf", "", "9" * 25, "0,0.01", "off"]
    if high is not None:
        values += [str(high), str(high + 1)]
    return values + [*(choices or ())]


SETTING = st.sampled_from(sorted(config._SETTINGS)).flatmap(
    lambda key: st.sampled_from(edge_values(key)).map(lambda value: f"{key}={value}"))
# argv names a file the test makes as {dir}/name; {dir} itself is a directory
# and {dir}/taken a file
TRACES = [
    "const:12mbps", "const:1gbps", "const:0mbps", "const:13gbps", "const:x",
    "step:12mbps@10ms,0mbps@10ms", "step:0mbps@10ms", "step:12mbps@5.5ms", "step:12mbps",
    "walk:1mbps-24mbps@100ms", "walk:24mbps-1mbps@100ms", "walk:1mbps-24mbps@0ms", "walk:x",
    "", "  ", "{dir}", "{dir}/none"]
# a comment and a blank line, a bad byte, decreasing stamps, a final 0, nothing
TRACE_FILES = [b"0\n1\n2\n", b"# stamps\n\n5\n10\n", b"10\n20\n\xff30\n",
               b"5\n3\n", b"3\n0\n", b""]
CONFIG_FILES = [b"scheme = tg\n", b"# a comment\n\nseed = 3\n", b"duration_s = 0.01\n",
                b"assist.mode = ib\n", b"[run]\nscheme = tg\n", b"cc.alpha = 1e300\n",
                b"bogus\n", b"\xff\n"]
# a run that can start is drawn three times in five, a usable output two in three
DURATIONS = ["0.02", "0.02", "0.0004", "1e-7", "4e-7"]
OUTPUTS = ["{dir}/out"] * 4 + ["{dir}/taken", "{dir}/taken/out"]
# the tables each subcommand writes in its output directory
TABLES = {"run": ["summary.csv"], "single-flow": ["summary.csv"],
          "fairness": ["summary.csv", "fairness.csv"], "feedback-modes": ["modes.csv"],
          "period-sweep": ["sweep.csv"]}
# run's log names that cannot be written: the output directory, its parent,
# the summary and a path under the summary
LOG_NAMES = [".", "..", "summary.csv", "summary.csv/x"]


@st.composite
def cli_cases(draw):
    """(argv, {file name: bytes, or None for a directory}) for one call of
    ``main``."""
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv = [command, *SUBCOMMANDS[command], "--duration", draw(st.sampled_from(DURATIONS))]
    files = {}
    trace = draw(st.one_of(st.none(), st.sampled_from(TRACES), st.sampled_from(TRACE_FILES)))
    if isinstance(trace, bytes):
        files["trace.txt"], trace = trace, "{dir}/trace.txt"
    if trace is not None:
        argv += ["--trace", trace]
    conf = draw(st.one_of(st.none(), st.sampled_from(CONFIG_FILES), st.just("{dir}")))
    if isinstance(conf, bytes):
        files["run.conf"], conf = conf, "{dir}/run.conf"
    if conf is not None:
        argv += ["--config", conf]
    for setting in draw(st.lists(SETTING, max_size=2)):
        argv += ["--set", setting]
    if command == "run":
        for flag in ("--events-csv", "--feedback-csv"):
            usable = f"{flag[2:]}.csv"   # no log or a usable one five times in nine
            name = draw(st.sampled_from([None, None, None, usable, usable, *LOG_NAMES]))
            if name is not None:
                argv += [flag, name]
    if draw(st.integers(0, 7)) == 0:   # a directory where a table goes
        files["out/" + draw(st.sampled_from(TABLES[command]))] = None
    return argv + ["-o", draw(st.sampled_from(OUTPUTS))], files


def in_run(*argv, **files):
    return (["run", "--duration", "0.02", *argv, "-o", "{dir}/out"],
            {f"{name}.txt": data for name, data in files.items()})


@settings(max_examples=200, derandomize=True, deadline=None)
@given(cli_cases())
# each input that once exited 1, or that a check now refuses with exit 2
@example((["run", "--duration", "1e-7", "--trace", "step:12mbps@10ms,0mbps@10ms",
           "-o", "{dir}/out"], {}))
@example((["run", "--duration", "4e-7", "--trace", "{dir}/trace.txt", "-o", "{dir}/out"],
          {"trace.txt": b"0\n1\n2\n"}))
@example(in_run("--set", "cc.alpha=" + "9" * 25))
@example(in_run("--trace", "const:" + INF_RATE))
@example(in_run("--trace", f"step:{INF_RATE}@10ms"))
@example(in_run("--trace", f"walk:1mbps-{INF_RATE}@10ms"))
@example(in_run("--trace", f"step:1mbps@{LONG_INT}ms"))
@example(in_run("--trace", f"walk:1mbps-2mbps@{LONG_INT}ms"))
@example(in_run("--trace", f"walk:1mbps-2mbps@10ms:{LONG_INT}"))
@example(in_run("--trace", "{dir}"))
@example(in_run("--config", "{dir}"))
@example(in_run("--trace", "  "))
@example(in_run("--trace", "{dir}/trace.txt", trace=b""))
@example(in_run("--trace", "{dir}/trace.txt", trace=b"10\n20\n\xff30\n"))
@example((["run", "--duration", "0.02", "-o", "{dir}/taken"], {}))
@example((["period-sweep", *SUBCOMMANDS["period-sweep"], "--duration", "0.02",
           "-o", "{dir}/taken/out"], {}))
@example(in_run("--events-csv", "events.csv", "--feedback-csv", "feedback.csv"))
@example(in_run("--events-csv", "."))
@example(in_run("--feedback-csv", "summary.csv/x"))
@example(in_run("--events-csv", "summary.csv"))
@example((["run", "--duration", "0.02", "-o", "{dir}/out"], {"out/summary.csv": None}))
@example((["period-sweep", *SUBCOMMANDS["period-sweep"], "--duration", "0.02",
           "-o", "{dir}/out"], {"out/sweep.csv": None}))
def test_every_argument_list_exits_0_2_or_3_without_a_traceback(case):
    """Exit 1 is for a bug: every input from outside the program (each
    subcommand's flags, config keys at their edges, malformed trace and
    config files, an output path under a file, run's log names, a directory
    where a table goes) is used or refused.  A blank trace names neither the
    default trace nor a path: it is a usage error."""
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "taken").write_text("")
        for name, data in files.items():
            if data is None:
                Path(tmp, name).mkdir(parents=True)
            else:
                Path(tmp, name).write_bytes(data)
        argv = [arg.replace("{dir}", tmp) for arg in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:   # argparse refuses a flag's value
                rc = exc.code
    assert rc in (EXIT_OK, EXIT_USAGE, EXIT_MISSING_INPUT), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if "--trace" in argv and not argv[argv.index("--trace") + 1].strip():
        assert rc == EXIT_USAGE, (argv, err.getvalue())
