"""Run configuration: defaults, flat INI files, and override merging.

Config files are flat ``key = value`` lines with dotted namespaces, e.g.::

    scheme = natcp
    trace = const:12mbps
    duration_s = 60
    assist.period_us = 50000
    path.loss_prob = 0.001
    flows.start_s = 0, 15
    flows.ue = 0, 0

Precedence: explicit overrides > config file > a caller's own defaults
(a CLI subcommand's) > built-in defaults.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from pathlib import Path

from .cc import SCHEMES, CcConfig
from .emulink import PathConfig
from .netassist import NetAssistConfig
from .trace import (
    DEFAULT_MTU,
    Schedule,
    TraceError,
    is_trace_expression,
    parse_trace,
    schedule_from_spec,
)


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass(frozen=True)
class FlowSpec:
    flow_id: int
    ue_id: int
    start_us: int


@dataclass
class SimConfig:
    """Every leaf field is a config key; see ``_SETTINGS``.

    A field's metadata names its key when that is not its attribute name
    (``key``) and bounds it: ``sign`` is ``"positive"`` or
    ``"non-negative"``, ``max`` an inclusive maximum and ``choices`` the
    values allowed.  ``PathConfig``, ``NetAssistConfig`` and ``CcConfig``
    spell theirs the same way, and ``validate`` reads every bound from there.
    """

    scheme: str = field(default="natcp", metadata={"choices": SCHEMES})
    trace: str = "const:12mbps"
    # at most ~32 years, which keeps every recorded microsecond far below the
    # int64 range of the event log and the deliveries
    duration_s: float = field(default=60.0, metadata={"sign": "positive", "max": 1_000_000_000})
    seed: int = 1
    # at most 1,000,000, so the event log's byte seq (packets x mtu) stays
    # within int64 for 9.2e12 packets
    mtu: int = field(default=DEFAULT_MTU, metadata={"sign": "positive", "max": 1_000_000})
    queue_capacity_bytes: int = field(default=150_000, metadata={"key": "queue.capacity_bytes"})
    cc: CcConfig = field(default_factory=CcConfig)
    flow_starts_s: tuple[float, ...] = field(default=(0.0,), metadata={"key": "flows.start_s"})
    flow_ues: tuple[int, ...] = field(default=(0,), metadata={"key": "flows.ue"})
    # record the per-packet event log: the run spools its rows to a temporary
    # file, RunResult.events, in the packed row format; off, it is None
    log_events: bool = field(default=False, metadata={"key": "log.events"})
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
        """Each flow's UE once, in the order the flows name them."""
        return list(dict.fromkeys(self._flow_ue_list()))

    # -- validation ---------------------------------------------------------

    def validate(self) -> list[str]:
        # a part of the wrong type has no keys to check
        errs = [f"{part} must be a {cls.__name__}" for part, cls in _PARTS.items()
                if not isinstance(getattr(self, part), cls)]
        bad_parts = {err.split(" ", 1)[0] for err in errs}
        for key, (owner, attr, _, types, items, kind, sign, high, choices) in _SETTINGS.items():
            if owner in bad_parts:
                continue
            value = getattr(getattr(self, owner) if owner else self, attr)
            if isinstance(value, float) and not math.isfinite(value):
                errs.append(f"{key} must be finite")
            elif type(value) not in types or items and not items.issuperset(map(type, value)):
                errs.append(f"{key} must be {kind}")
            elif items and float in items and not all(
                    math.isfinite(v) for v in value if type(v) is float):
                errs.append(f"{key} must be finite")
            elif sign == "positive" and value <= 0:
                errs.append(f"{key} must be positive")
            elif sign == "non-negative" and value < 0:
                errs.append(f"{key} must not be negative")
            elif high is not None and value > high:
                errs.append(f"{key} must be at most {high:,}")
            elif choices and value not in choices:
                errs.append(f"{key} must be one of {'/'.join(choices)}, got {value!r}")
        # the checks below read keys that passed their own checks only
        bad = {err.split(" ", 1)[0] for err in errs}
        bad |= {key for key, entry in _SETTINGS.items() if entry[0] in bad_parts}
        if "trace" not in bad and not self.trace.strip():
            errs.append("trace must not be empty")
        if "duration_s" not in bad and self.duration_us == 0:  # rounds to no microsecond
            errs.append("duration_s must be at least 1 us")
        if "path.uplink_rate_bps" not in bad and 0 < self.path.uplink_rate_bps < 1:
            # else a serialization delay overflows
            errs.append("path.uplink_rate_bps must be 0 (ideal) or at least 1 bit/s")
        if not bad & {"queue.capacity_bytes", "mtu"} and self.queue_capacity_bytes < self.mtu:
            errs.append("queue.capacity_bytes must hold at least one MTU packet")
        if "flows.start_s" not in bad and not self.flow_starts_s:
            errs.append("at least one flow is required")
        if not bad & {"flows.ue", "flows.start_s"} \
                and len(self.flow_ues) not in (1, len(self.flow_starts_s)):
            errs.append("flows.ue must list one UE or one per flows.start_s entry")
        if not bad & {"duration_s", "flows.start_s"}:
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


# field type -> (caster of a setting's text, the exact types a value may
# have, those a tuple's items may have, the type's name in messages); an int
# is accepted where a float is declared, and a bool only where a bool is
_TYPES = {
    "str": (str, {str}, None, "a string"),
    "int": (int, {int}, None, "an integer"),  # a run packs these as int64s
    "float": (float, {int, float}, None, "a number"),
    "bool": (_parse_bool, {bool}, None, "a boolean"),
    "int | None": (_parse_optional_int, {int, type(None)}, None, "an integer or none"),
    "tuple[float, ...]": (partial(_parse_list, float), {tuple}, {int, float}, "a tuple of numbers"),
    "tuple[int, ...]": (partial(_parse_list, int), {tuple}, {int}, "a tuple of integers"),
}


def _key_table(cls: type, owner: str | None = None) -> dict:
    """key -> (owner attribute or None, field name, *``_TYPES[field type]``,
    sign, maximum, choices) for every leaf field of a config dataclass,
    recursing into nested config dataclasses.  A key is the dotted attribute
    path unless the field's metadata names it; a bound the metadata leaves
    out is None.
    """
    prefix = f"{owner}." if owner else ""
    table = {}
    for f in dataclasses.fields(cls):
        if dataclasses.is_dataclass(f.default_factory):
            table.update(_key_table(f.default_factory, f.name))
        else:
            table[prefix + f.metadata.get("key", f.name)] = (
                owner, f.name, *_TYPES[f.type], *map(f.metadata.get, ("sign", "max", "choices")))
    return table


_SETTINGS = _key_table(SimConfig)
# attribute -> class of each part that holds dotted keys (path, assist, cc)
_PARTS = {f.name: f.default_factory for f in dataclasses.fields(SimConfig)
          if dataclasses.is_dataclass(f.default_factory)}


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
        owner, attr, caster = entry[:3]
        try:
            value = caster(raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from exc
        setattr(getattr(cfg, owner) if owner else cfg, attr, value)
    return cfg


def read_utf8(path: str, error: type[ValueError]) -> str:
    """A text file read as UTF-8 whatever the locale, with universal newlines.

    A byte that does not decode raises ``error`` naming its line, counted
    as ``str.splitlines`` counts lines.  A directory or a file that cannot
    be read raises ``error`` naming the path; a missing file raises
    ``FileNotFoundError``.
    """
    try:
        return Path(path).read_text(encoding="utf-8")
    except (IsADirectoryError, PermissionError) as exc:
        raise error(f"{path}: cannot be read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        # read_text decodes the whole file in one call: offsets are the file's
        data, at = exc.object, exc.start
        line = len((data[:at].decode("utf-8") + "x").splitlines())
        raise error(f"{path}: line {line}: byte 0x{data[at]:02x} is not "
                    f"UTF-8 ({exc.reason})") from None


def build_config(
    file_path: str | None = None,
    overrides: dict[str, str] | None = None,
    defaults: dict[str, str] | None = None,
) -> SimConfig:
    """Built-in defaults, then ``defaults``, then the config file, then
    explicit overrides."""
    cfg = apply_settings(SimConfig(), defaults or {})
    if file_path is not None:
        text = read_utf8(file_path, ConfigError)
        apply_settings(cfg, parse_config_text(text))
    if overrides:
        apply_settings(cfg, overrides)
    return cfg


def resolve_schedule(cfg: SimConfig) -> Schedule:
    """Turn the config's trace field into a delivery schedule.

    The field is either a generator expression (``const:``/``step:``/
    ``walk:``) or a path to a trace file of millisecond timestamps.
    Missing files raise FileNotFoundError so callers can distinguish
    absent inputs from malformed ones.  Every schedule holds a delivery
    opportunity: a trace without one (an all-outage ``step:``, or a rate
    that rounds to no packet in the run) raises TraceError where its
    schedule is built, before a run could queue its first packet.

    A trace file is read on every call but parsed once per process: see
    ``_parse_trace_once``.  Expression schedules are built anew each time.
    """
    duration_ms = -(-cfg.duration_us // 1000)   # whole ms that cover the run
    if is_trace_expression(cfg.trace):
        return schedule_from_spec(cfg.trace, duration_ms, cfg.mtu, cfg.seed)
    return _parse_trace_once(read_utf8(cfg.trace, TraceError), cfg.mtu)


@lru_cache(maxsize=1, typed=True)
def _parse_trace_once(text: str, mtu: int) -> Schedule:
    """``parse_trace`` of the last trace text and MTU, kept for the next run
    on the same bytes: the runs of a grid subcommand on one ``--trace FILE``,
    or the configs one pool worker runs.  The key is the text itself, not the
    file's path or mtime, so a file rewritten in place is parsed anew; an
    error is not kept, so a malformed file raises on every build.  It keeps
    one schedule (about 36 bytes an instant) and its text alive until another
    text or MTU is parsed.  ``parse_trace`` itself keeps nothing."""
    return parse_trace(text, mtu)
