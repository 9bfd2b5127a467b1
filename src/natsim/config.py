"""Run configuration: defaults, flat INI files, and override merging.

Config files are flat ``key = value`` lines with dotted namespaces, e.g.::

    scheme = natcp
    trace = const:12mbps
    duration_s = 60
    assist.period_us = 50000
    path.loss_prob = 0.001
    flows.start_s = 0, 15
    flows.ue = 0, 0

Precedence: command-line flags > config file > built-in defaults.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from .cc import SCHEMES
from .emulink import PathConfig
from .netassist import NetAssistConfig
from .trace import (
    TraceError,
    TraceSchedule,
    is_trace_expression,
    parse_trace,
    schedule_from_spec,
)

ASSIST_MODES = ("oob", "ib")
_POSITIVE = ("duration_s", "mtu", "assist.period_us", "assist.probe_interval_us",
             "cc.alpha", "cc.tg_horizon_us")
_NON_NEGATIVE = ("path.down_owd_us", "path.up_owd_us", "path.oob_delay_us",
                 "path.uplink_rate_bps", "path.probe_jitter_us",
                 "assist.feedback_size_bytes", "assist.part2_ceiling_us")
# cc.alpha: a window of a million bandwidth-delay products; far above, it
# overflows a float.  assist.feedback_size_bytes: a megabyte digest, far above
# any real one; far above, its serialization delay overflows a float.
# duration_s: ~32 years keeps every recorded microsecond far below the
# int64 range of the event log and the deliveries
_AT_MOST = {"cc.alpha": 1_000_000, "assist.feedback_size_bytes": 1_000_000,
            "duration_s": 1_000_000_000}


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass(frozen=True)
class FlowSpec:
    flow_id: int
    ue_id: int
    start_us: int


def _key(key: str, default):
    """A field whose config key is not its attribute name."""
    return field(default=default, metadata={"key": key})


@dataclass
class SimConfig:
    """Every leaf field is a config key; see ``_SETTINGS``."""

    scheme: str = "natcp"
    trace: str = "const:12mbps"
    duration_s: float = 60.0
    seed: int = 1
    mtu: int = 1500
    queue_capacity_bytes: int = _key("queue.capacity_bytes", 150_000)
    alpha: float = _key("cc.alpha", 2.0)
    divide_pacing_by_beta: bool = _key("cc.divide_pacing_by_beta", False)
    tg_horizon_us: int = _key("cc.tg_horizon_us", 10_000_000)
    flow_starts_s: tuple[float, ...] = _key("flows.start_s", (0.0,))
    flow_ues: tuple[int, ...] = _key("flows.ue", (0,))
    # record the per-packet event log (RunResult.events); off, it stays empty
    log_events: bool = _key("log.events", False)
    path: PathConfig = field(default_factory=PathConfig)
    assist: NetAssistConfig = field(default_factory=NetAssistConfig)

    @property
    def duration_us(self) -> int:
        return int(round(self.duration_s * 1e6))

    def _flow_ue_list(self) -> tuple[int, ...]:
        # a single UE entry applies to every flow
        if len(self.flow_ues) == 1 and len(self.flow_starts_s) > 1:
            return self.flow_ues * len(self.flow_starts_s)
        return self.flow_ues

    def flows(self) -> list[FlowSpec]:
        return [
            FlowSpec(i, ue, int(round(start * 1e6)))
            for i, (start, ue) in enumerate(
                zip(self.flow_starts_s, self._flow_ue_list()))
        ]

    def ue_ids(self) -> list[int]:
        seen: list[int] = []
        for ue in self._flow_ue_list():
            if ue not in seen:
                seen.append(ue)
        return seen

    # -- validation ---------------------------------------------------------

    def validate(self) -> list[str]:
        errs: list[str] = []
        if self.scheme not in SCHEMES:
            errs.append(f"scheme must be one of {'/'.join(SCHEMES)}, got {self.scheme!r}")
        for key, (owner, attr, _) in _SETTINGS.items():
            value = getattr(getattr(self, owner) if owner else self, attr)
            values = value if isinstance(value, tuple) else (value,)
            if not all(math.isfinite(v) for v in values if isinstance(v, float)):
                errs.append(f"{key} must be finite")
            elif key in _POSITIVE and value <= 0:
                errs.append(f"{key} must be positive")
            elif key in _NON_NEGATIVE and value < 0:
                errs.append(f"{key} must not be negative")
            elif key in _AT_MOST and value > _AT_MOST[key]:
                errs.append(f"{key} must be at most {_AT_MOST[key]:,}")
        if 0 < self.path.uplink_rate_bps < 1:  # else a serialization delay overflows
            errs.append("path.uplink_rate_bps must be 0 (ideal) or at least 1 bit/s")
        if self.queue_capacity_bytes < self.mtu:
            errs.append("queue.capacity_bytes must hold at least one MTU packet")
        if not (0.0 <= self.path.loss_prob <= 1.0):
            errs.append("path.loss_prob must be in [0, 1]")
        if self.assist.mode not in ASSIST_MODES:
            errs.append(f"assist.mode must be one of {'/'.join(ASSIST_MODES)}")
        if not self.flow_starts_s:
            errs.append("at least one flow is required")
        if len(self.flow_ues) not in (1, len(self.flow_starts_s)):
            errs.append("flows.ue must list one UE or one per flows.start_s entry")
        for i, start in enumerate(self.flow_starts_s):
            if not (0 <= start < self.duration_s):
                errs.append(f"flow {i} start {start}s outside [0, duration)")
        return errs

    def require_valid(self) -> "SimConfig":
        errs = self.validate()
        if errs:
            raise ConfigError("; ".join(errs))
        return self


def _parse_bool(text: str) -> bool:
    norm = text.strip().lower()
    if norm in ("1", "true", "yes", "on"):
        return True
    if norm in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_list(cast, text: str) -> tuple:
    return tuple(cast(part) for part in text.split(","))


def _parse_optional_int(text: str) -> int | None:
    norm = text.strip().lower()
    if norm in ("", "none", "off"):
        return None
    return int(norm)


_CASTERS = {
    "str": str,
    "int": int,
    "float": float,
    "bool": _parse_bool,
    "int | None": _parse_optional_int,
    "tuple[float, ...]": partial(_parse_list, float),
    "tuple[int, ...]": partial(_parse_list, int),
}


def _key_table(cls: type, owner: str | None = None) -> dict:
    """key -> (owner attribute or None, field name, caster) for every leaf
    field of a config dataclass, recursing into nested config dataclasses.
    A key is the dotted attribute path unless the field's metadata names it.
    """
    prefix = f"{owner}." if owner else ""
    table = {}
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(f.default_factory):
            table.update(_key_table(f.default_factory, f.name))
        else:
            table[prefix + f.metadata.get("key", f.name)] = (
                owner, f.name, _CASTERS[f.type])
    return table


_SETTINGS = _key_table(SimConfig)


def parse_config_text(text: str) -> dict[str, str]:
    """Read flat ``key = value`` lines into a string map; sections are rejected."""
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    parser.optionxform = str  # keep dotted keys as written
    try:
        parser.read_string("[run]\n" + text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    extra = parser.sections()[1:] + ([parser.default_section] if parser.defaults() else [])
    if extra:
        raise ConfigError(f"config files hold flat key = value lines, "
                          f"not sections: [{extra[0]}]")
    return dict(parser.items("run"))


def apply_settings(cfg: SimConfig, settings: dict[str, str]) -> SimConfig:
    """Apply string-typed settings onto a config, with type checking."""
    for key, raw in settings.items():
        entry = _SETTINGS.get(key)
        if entry is None:
            raise ConfigError(f"unknown config key {key!r}")
        owner, attr, caster = entry
        try:
            value = caster(raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from exc
        setattr(getattr(cfg, owner) if owner else cfg, attr, value)
    return cfg


def build_config(
    file_path: str | None = None,
    overrides: dict[str, str] | None = None,
) -> SimConfig:
    """Defaults, then the config file, then explicit overrides."""
    cfg = SimConfig()
    if file_path is not None:
        text = Path(file_path).read_text()
        apply_settings(cfg, parse_config_text(text))
    if overrides:
        apply_settings(cfg, overrides)
    return cfg


def resolve_schedule(cfg: SimConfig) -> TraceSchedule:
    """Turn the config's trace field into a delivery schedule.

    The field is either a generator expression (``const:``/``step:``/
    ``walk:``) or a path to a trace file of millisecond timestamps.
    Missing files raise FileNotFoundError so callers can distinguish
    absent inputs from malformed ones.  A schedule without a single delivery
    opportunity (an all-outage trace, or a rate that rounds to nothing)
    raises TraceError here, before a run could queue its first packet.
    """
    duration_ms = int(round(cfg.duration_s * 1000))
    if is_trace_expression(cfg.trace):
        schedule = schedule_from_spec(cfg.trace, duration_ms, cfg.mtu, cfg.seed)
    else:
        schedule = parse_trace(Path(cfg.trace).read_text(), mtu=cfg.mtu)
    if not schedule.usable:
        raise TraceError(f"trace {cfg.trace!r} has no delivery opportunity "
                         "and cannot be replayed")
    return schedule
