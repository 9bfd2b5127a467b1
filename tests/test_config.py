"""Config keys: every key parses to the right field with the right type,
the README's key table documents exactly these keys and their defaults, and
validation rejects non-finite values, negative delays and every key's
lower bound."""

import re
from functools import reduce
from pathlib import Path

import pytest

from natsim import config
from natsim.config import ConfigError, SimConfig, apply_settings

README = Path(__file__).resolve().parent.parent / "README.md"

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
    ("cc.alpha", "alpha", "1.5", 1.5),
    ("cc.divide_pacing_by_beta", "divide_pacing_by_beta", "true", True),
    ("cc.divide_pacing_by_beta", "divide_pacing_by_beta", "Yes", True),
    ("cc.divide_pacing_by_beta", "divide_pacing_by_beta", "on", True),
    ("cc.divide_pacing_by_beta", "divide_pacing_by_beta", "1", True),
    ("cc.divide_pacing_by_beta", "divide_pacing_by_beta", "FALSE", False),
    ("cc.divide_pacing_by_beta", "divide_pacing_by_beta", "no", False),
    ("cc.divide_pacing_by_beta", "divide_pacing_by_beta", "off", False),
    ("cc.divide_pacing_by_beta", "divide_pacing_by_beta", "0", False),
    ("cc.tg_horizon_us", "tg_horizon_us", "500000", 500_000),
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


@pytest.mark.parametrize("key,path,raw,value", CASES,
                         ids=[f"{k}={r.strip()}" for k, _, r, _ in CASES])
def test_key_sets_typed_field(key, path, raw, value):
    cfg = SimConfig()
    cfg.assist.suppress_after_us = 1      # so that "none" visibly clears it
    if isinstance(value, bool):           # so that a flag visibly flips
        setattr(cfg, path, not value)
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


def readme_key_table() -> dict[str, str]:
    text = README.read_text()
    section = text.split("## Configuration keys", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([^`]+)` \| `([^`]+)` \|", section, re.M)
    keys = [key for key, _ in rows]
    assert len(keys) == len(set(keys)), "duplicate README rows"
    return dict(rows)


def test_readme_documents_every_key_and_its_default():
    table = readme_key_table()
    assert set(table) == set(config._SETTINGS)
    for key, default in table.items():
        # the documented default, parsed like any setting, is the default
        cfg = apply_settings(SimConfig(), {key: default})
        assert cfg == SimConfig(), f"README default for {key}: {default}"


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
])
def test_validation_rejects(key, raw):
    cfg = apply_settings(SimConfig(), {key: raw})
    assert any(key in err for err in cfg.validate())
    with pytest.raises(ConfigError, match=re.escape(key)):
        cfg.require_valid()


@pytest.mark.parametrize("key,raw,message", [
    *((key, "0", "must be positive") for key in config._POSITIVE),
    *((key, "-1", "must not be negative") for key in config._NON_NEGATIVE),
    *((key, repr(high * 2), f"must be at most {high:,}")
      for key, high in config._AT_MOST.items()),
])
def test_validation_bound_names_the_key(key, raw, message):
    # a misspelt name in _POSITIVE, _NON_NEGATIVE or _AT_MOST would drop its bound
    assert key in config._SETTINGS
    cfg = apply_settings(SimConfig(), {key: raw})
    assert f"{key} {message}" in cfg.validate()


def test_validation_accepts_zero_delays():
    cfg = apply_settings(SimConfig(), {
        "path.down_owd_us": "0", "path.up_owd_us": "0", "path.oob_delay_us": "0"})
    assert cfg.validate() == []


def test_validation_accepts_the_edges_of_the_upper_bounds():
    cfg = apply_settings(SimConfig(), {
        **{key: repr(high) for key, high in config._AT_MOST.items()},
        "path.uplink_rate_bps": "1"})
    assert cfg.validate() == []


def test_validation_accepts_zero_sizes_rates_and_terms():
    # a zero uplink rate means ideal serialization, not an error
    cfg = apply_settings(SimConfig(), {
        "path.uplink_rate_bps": "0", "path.probe_jitter_us": "0",
        "assist.feedback_size_bytes": "0", "assist.part2_ceiling_us": "0"})
    assert cfg.validate() == []
