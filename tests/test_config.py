"""Config keys: every key parses to the right field with the right type,
the README's key table documents exactly these keys, their defaults and
their maxima, and validation rejects non-finite values, values of the wrong
type and every bound declared on a field.  A sweep of boundary values checks
that a config either fails before its run or runs to the end.  The bounds
are read from ``config._SETTINGS``, which reads them from the fields."""

import dataclasses
import itertools
import math
import random
import re
from functools import reduce
from pathlib import Path

import pytest

from natsim import config
from natsim.cc import CcConfig
from natsim.config import ConfigError, SimConfig, apply_settings
from natsim.emulink import PathConfig
from natsim.engine import Simulation
from natsim.netassist import NetAssistConfig
from natsim.trace import TraceError

README = Path(__file__).resolve().parent.parent / "README.md"
# key -> (sign, maximum, choices), as the fields' metadata declares them
BOUNDS = {key: entry[-3:] for key, entry in config._SETTINGS.items()}
MAXIMA = {key: high for key, (_, high, _) in BOUNDS.items() if high is not None}

# key, attribute path on SimConfig, raw text, typed value
CASES = [
    ("scheme", "scheme", "tg", "tg"),
    ("trace", "trace", "walk:1mbps-24mbps@100ms", "walk:1mbps-24mbps@100ms"),
    ("duration_s", "duration_s", "12.5", 12.5),
    ("seed", "seed", "7", 7),
    ("mtu", "mtu", "1200", 1200),
    ("queue.capacity_bytes", "queue_capacity_bytes", "30000", 30_000),
    ("path.down_owd_us", "path.down_owd_us", "1000", 1000),
    ("path.up_owd_us", "path.up_owd_us", "4000", 4000),
    ("path.uplink_rate_bps", "path.uplink_rate_bps", "6e6", 6e6),
    ("path.oob_delay_us", "path.oob_delay_us", "500", 500),
    ("path.loss_prob", "path.loss_prob", "0.01", 0.01),
    ("path.probe_jitter_us", "path.probe_jitter_us", "100", 100),
    ("assist.period_us", "assist.period_us", "10000", 10_000),
    ("assist.mode", "assist.mode", "ib", "ib"),
    ("assist.probe_interval_us", "assist.probe_interval_us", "20000", 20_000),
    ("assist.feedback_size_bytes", "assist.feedback_size", "128", 128),
    ("assist.part2_ceiling_us", "assist.part2_ceiling_us", "500000", 500_000),
    ("assist.suppress_after_us", "assist.suppress_after_us", "3000000", 3_000_000),
    ("assist.suppress_after_us", "assist.suppress_after_us", " None ", None),
    ("assist.suppress_after_us", "assist.suppress_after_us", "off", None),
    ("cc.alpha", "cc.alpha", "1.5", 1.5),
    ("cc.divide_pacing_by_beta", "cc.divide_pacing_by_beta", "true", True),
    ("cc.divide_pacing_by_beta", "cc.divide_pacing_by_beta", "Yes", True),
    ("cc.divide_pacing_by_beta", "cc.divide_pacing_by_beta", "on", True),
    ("cc.divide_pacing_by_beta", "cc.divide_pacing_by_beta", "1", True),
    ("cc.divide_pacing_by_beta", "cc.divide_pacing_by_beta", "FALSE", False),
    ("cc.divide_pacing_by_beta", "cc.divide_pacing_by_beta", "no", False),
    ("cc.divide_pacing_by_beta", "cc.divide_pacing_by_beta", "off", False),
    ("cc.divide_pacing_by_beta", "cc.divide_pacing_by_beta", "0", False),
    ("cc.tg_horizon_us", "cc.tg_horizon_us", "500000", 500_000),
    ("flows.start_s", "flow_starts_s", "0, 15", (0.0, 15.0)),
    ("flows.start_s", "flow_starts_s", "2.5", (2.5,)),
    ("flows.ue", "flow_ues", "0,1, 1", (0, 1, 1)),
    ("log.events", "log_events", "on", True),
    ("log.events", "log_events", "off", False),
]


def attr_path(cfg: SimConfig, path: str):
    return reduce(getattr, path.split("."), cfg)


def test_cases_cover_every_key():
    assert {key for key, *_ in CASES} == set(config._SETTINGS)
    assert len(config._SETTINGS) == 24


def test_the_keys_keep_their_order():
    # the CLI's keys, in the order validation reports their errors
    assert list(config._SETTINGS) == [
        "scheme", "trace", "duration_s", "seed", "mtu", "queue.capacity_bytes",
        "cc.alpha", "cc.divide_pacing_by_beta", "cc.tg_horizon_us",
        "flows.start_s", "flows.ue", "log.events",
        "path.down_owd_us", "path.up_owd_us", "path.uplink_rate_bps",
        "path.oob_delay_us", "path.loss_prob", "path.probe_jitter_us",
        "assist.period_us", "assist.mode", "assist.probe_interval_us",
        "assist.feedback_size_bytes", "assist.part2_ceiling_us",
        "assist.suppress_after_us",
    ]


def test_no_cc_key_names_itself():
    # each cc.* key is its field's path, like the path.* and assist.* keys
    for f in dataclasses.fields(CcConfig):
        assert "key" not in f.metadata
        assert config._SETTINGS[f"cc.{f.name}"][:2] == ("cc", f.name)


@pytest.mark.parametrize("key,path,raw,value", CASES,
                         ids=[f"{k}={r.strip()}" for k, _, r, _ in CASES])
def test_key_sets_typed_field(key, path, raw, value):
    cfg = SimConfig()
    cfg.assist.suppress_after_us = 1      # so that "none" visibly clears it
    if isinstance(value, bool):           # so that a flag visibly flips
        *owner, attr = path.split(".")
        setattr(reduce(getattr, owner, cfg), attr, not value)
    apply_settings(cfg, {key: raw})
    got = attr_path(cfg, path)
    assert got == value
    assert type(got) is type(value)


@pytest.mark.parametrize("key,raw", [
    ("cc.divide_pacing_by_beta", "maybe"),
    ("seed", "1.5"),
    ("duration_s", "fast"),
    ("flows.ue", "0,a"),
    ("assist.suppress_after_us", "soon"),
])
def test_bad_value_names_the_key(key, raw):
    with pytest.raises(ConfigError, match=re.escape(repr(key))):
        apply_settings(SimConfig(), {key: raw})


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key"):
        apply_settings(SimConfig(), {"cc.beta": "2"})


def test_read_utf8_decodes_whatever_the_locale_and_names_a_bad_line(tmp_path):
    path = tmp_path / "f"
    path.write_bytes("# café\r\n1\r2\n".encode())
    assert config.read_utf8(str(path), TraceError) == "# café\n1\n2\n"
    # the bad byte sits far past the first read buffer; \r alone ends a line
    path.write_bytes(b"1\r\n" * 20_000 + b"2\r3 \xe9\n")
    with pytest.raises(TraceError, match=r"line 20002: byte 0xe9 is not UTF-8"):
        config.read_utf8(str(path), TraceError)


def readme_key_table() -> dict[str, tuple[str, str]]:
    """key -> (default, meaning) from the README's key table."""
    text = README.read_text()
    section = text.split("## Configuration keys", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| `([^`]+)` \| (.*) \|$", section, re.M)
    keys = [key for key, *_ in rows]
    assert len(keys) == len(set(keys)), "duplicate README rows"
    return {key: (default, meaning) for key, default, meaning in rows}


def test_readme_documents_every_key_and_its_default():
    table = readme_key_table()
    assert set(table) == set(config._SETTINGS)
    for key, (default, _) in table.items():
        # the documented default, parsed like any setting, is the default
        cfg = apply_settings(SimConfig(), {key: default})
        assert cfg == SimConfig(), f"README default for {key}: {default}"


def test_readme_states_exactly_the_declared_maxima():
    stated = {}
    for key, (_, meaning) in readme_key_table().items():
        match = re.search(r"at most ([\d,]+)", meaning)
        if match:
            stated[key] = int(match[1].replace(",", ""))
    assert stated == MAXIMA


# -- validation ---------------------------------------------------------------

@pytest.mark.parametrize("key,raw", [
    ("cc.alpha", "nan"),
    ("cc.alpha", "inf"),
    ("duration_s", "inf"),
    ("duration_s", "nan"),
    ("duration_s", "9300000000000.5"),
    ("path.uplink_rate_bps", "nan"),
    ("path.uplink_rate_bps", "-inf"),
    ("path.loss_prob", "nan"),
    ("flows.start_s", "0, nan"),
    ("path.down_owd_us", "-5000"),
    ("path.up_owd_us", "-1"),
    ("path.oob_delay_us", "-1"),
    ("path.uplink_rate_bps", "-1e6"),
    ("path.probe_jitter_us", "-1"),
    ("assist.feedback_size_bytes", "-64"),
    ("assist.part2_ceiling_us", "-5000"),
    ("cc.tg_horizon_us", "0"),
    ("cc.alpha", "1e300"),
    pytest.param("assist.feedback_size_bytes", "9" * 320,
                 id="assist.feedback_size_bytes-320 nines"),
    ("path.uplink_rate_bps", "1e-299"),
    ("path.uplink_rate_bps", "0.5"),
    ("path.loss_prob", "-0.1"),
    ("path.loss_prob", "1.5"),
    ("scheme", "bogus"),
    ("assist.mode", "x"),
])
def test_validation_rejects(key, raw):
    cfg = apply_settings(SimConfig(), {key: raw})
    assert any(key in err for err in cfg.validate())
    with pytest.raises(ConfigError, match=re.escape(key)):
        cfg.require_valid()


@pytest.mark.parametrize("key,raw,message", [
    *((key, "0", "must be positive")
      for key, (sign, _, _) in BOUNDS.items() if sign == "positive"),
    *((key, "-1", "must not be negative")
      for key, (sign, _, _) in BOUNDS.items() if sign == "non-negative"),
    *((key, repr(high * 2), f"must be at most {high:,}") for key, high in MAXIMA.items()),
    *((key, "x", f"must be one of {'/'.join(choices)}, got 'x'")
      for key, (_, _, choices) in BOUNDS.items() if choices),
])
def test_validation_bound_names_the_key(key, raw, message):
    cfg = apply_settings(SimConfig(), {key: raw})
    assert cfg.validate() == [f"{key} {message}"]


def test_validation_accepts_zero_delays():
    cfg = apply_settings(SimConfig(), {
        "path.down_owd_us": "0", "path.up_owd_us": "0", "path.oob_delay_us": "0"})
    assert cfg.validate() == []


def test_validation_accepts_the_edges_of_the_upper_bounds():
    # the queue must hold one packet of the largest mtu
    cfg = apply_settings(SimConfig(), {
        **{key: repr(high) for key, high in MAXIMA.items()},
        "path.uplink_rate_bps": "1", "queue.capacity_bytes": repr(MAXIMA["mtu"])})
    assert cfg.validate() == []


def test_validation_rejects_a_float_in_an_integer_key():
    # a library caller can set one; a run packs these values as int64s
    cfg = SimConfig(trace="step:0mbps@500ms,12mbps@500ms", duration_s=1.0)
    cfg.assist.part2_ceiling_us = 1e6
    cfg.path.down_owd_us = 2500.0
    cfg.mtu = math.inf
    errs = cfg.validate()
    assert "assist.part2_ceiling_us must be an integer" in errs
    assert "path.down_owd_us must be an integer" in errs
    assert "mtu must be finite" in errs
    with pytest.raises(ConfigError, match="must be an integer"):
        cfg.require_valid()


WRONG_TYPES = [
    (SimConfig(trace=5), "trace must be a string"),
    (SimConfig(flow_ues=(0.5,)), "flows.ue must be a tuple of integers"),
    (SimConfig(flow_ues=0), "flows.ue must be a tuple of integers"),
    (SimConfig(flow_starts_s=("0",)), "flows.start_s must be a tuple of numbers"),
    (SimConfig(scheme=None), "scheme must be a string"),
    (SimConfig(log_events="yes"), "log.events must be a boolean"),
    # not also "queue.capacity_bytes must hold at least one MTU packet"
    (SimConfig(mtu=1e6), "mtu must be an integer"),
    (SimConfig(assist=NetAssistConfig(suppress_after_us=2.5e6)),
     "assist.suppress_after_us must be an integer or none"),
]


@pytest.mark.parametrize("cfg,message", WRONG_TYPES,
                         ids=[message for _, message in WRONG_TYPES])
def test_validation_rejects_a_value_of_the_wrong_type(cfg, message):
    # a library caller can set any value; only its key's message comes back
    assert cfg.validate() == [message]


# a part of the wrong type, and a bool where only a number is valid
WRONG_PARTS_AND_BOOLS = [
    (SimConfig(path=None), "path must be a PathConfig"),
    (SimConfig(cc=None), "cc must be a CcConfig"),
    (SimConfig(assist="oob"), "assist must be a NetAssistConfig"),
    # not also "queue.capacity_bytes must hold at least one MTU packet"
    (SimConfig(mtu=True, queue_capacity_bytes=1500), "mtu must be an integer"),
    # not also "flow 0 start 0.0s outside [0, duration)"
    (SimConfig(duration_s=True), "duration_s must be a number"),
    (SimConfig(cc=CcConfig(alpha=False)), "cc.alpha must be a number"),
    (SimConfig(assist=NetAssistConfig(suppress_after_us=True)),
     "assist.suppress_after_us must be an integer or none"),
    (SimConfig(flow_ues=(True,)), "flows.ue must be a tuple of integers"),
]


@pytest.mark.parametrize("cfg,message", WRONG_PARTS_AND_BOOLS,
                         ids=[message for _, message in WRONG_PARTS_AND_BOOLS])
def test_a_wrong_part_or_a_bool_number_fails_validation(cfg, message):
    assert cfg.validate() == [message]
    # the run is refused before any part is read
    with pytest.raises(ConfigError, match=f"^{message}$"):
        Simulation(cfg)


def test_validation_accepts_an_int_in_a_float_key():
    cfg = SimConfig(duration_s=1, cc=CcConfig(alpha=3), flow_starts_s=(0, 0.5),
                    path=PathConfig(uplink_rate_bps=6_000_000, loss_prob=0))
    assert cfg.validate() == []


@pytest.mark.parametrize("key,raw,message", [
    # not also "flow 0 start 0.0s outside [0, duration)"
    ("duration_s", "nan", "duration_s must be finite"),
    ("duration_s", "0", "duration_s must be positive"),
    # not also "flow 1 start nans outside [0, duration)"
    ("flows.start_s", "0, nan", "flows.start_s must be finite"),
    # a check that spans keys still runs when the keys it reads passed theirs
    ("flows.ue", "0,1,2", "flows.ue must list one UE or one per flows.start_s entry"),
])
def test_a_bad_key_gets_one_message(key, raw, message):
    assert apply_settings(SimConfig(), {key: raw}).validate() == [message]


def test_validation_accepts_zero_sizes_rates_and_terms():
    # a zero uplink rate means ideal serialization, not an error
    cfg = apply_settings(SimConfig(), {
        "path.uplink_rate_bps": "0", "path.probe_jitter_us": "0",
        "assist.feedback_size_bytes": "0", "assist.part2_ceiling_us": "0"})
    assert cfg.validate() == []


# -- boundary sweep -------------------------------------------------------------

BOUNDARY_VALUES = tuple(dict.fromkeys((
    0, 1, *itertools.chain.from_iterable((high, high + 1) for high in MAXIMA.values()),
    2**62, 1e300, 1e-300)))
NUMERIC_KEYS = [key for key, (_, _, cast, *_) in config._SETTINGS.items()
                if cast not in (str, config._parse_bool)]
# a few round trips and digests; short enough that assist.period_us=1, a
# digest every microsecond, stays cheap
SWEEP_RUN_S = 0.02
SWEEP_PERIOD_US = 5_000


def fails_before_or_runs_to_the_end(settings: list[tuple[str, object]]) -> None:
    """Set each key to its value, as the nearest integer where the key takes
    only integers; the config must fail validation, fail at set-up, or run."""
    cfg = SimConfig(duration_s=SWEEP_RUN_S)
    cfg.assist.period_us = SWEEP_PERIOD_US
    for key, value in settings:
        try:
            apply_settings(cfg, {key: repr(value)})
        except ConfigError:
            apply_settings(cfg, {key: str(int(value))})
    if cfg.validate():
        return
    try:
        sim = Simulation(cfg)
    except (ConfigError, TraceError):   # the CLI exits 2 before any run
        return
    if all(key != "duration_s" for key, _ in settings):   # it may set a run of years
        try:
            sim.run().summary_row()
        except Exception as exc:
            raise AssertionError(f"{settings} passed validation, then crashed") from exc


@pytest.mark.parametrize("key", NUMERIC_KEYS)
def test_boundary_values_fail_before_the_run_or_run_to_the_end(key):
    for value in BOUNDARY_VALUES:
        fails_before_or_runs_to_the_end([(key, value)])


def test_boundary_value_pairs_fail_before_the_run_or_run_to_the_end():
    rng = random.Random(22)
    for _ in range(600):
        keys = rng.sample(NUMERIC_KEYS, 2)
        fails_before_or_runs_to_the_end([(key, rng.choice(BOUNDARY_VALUES)) for key in keys])
