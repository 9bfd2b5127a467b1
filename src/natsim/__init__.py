"""natsim: deterministic trace-driven simulator for network-assisted
congestion control over cellular-style bottlenecks."""

from .cc import SCHEMES, CcConfig, assisted_cwnd_bytes, cubic_k, cubic_window, make_controller
from .config import ConfigError, SimConfig, build_config, resolve_schedule
from .engine import (
    RunResult,
    Simulation,
    compute_power,
    percentile,
    run_simulation,
)
from .netassist import FeedbackMsg, NetAssist, NetAssistConfig
from .trace import TraceError, TraceSchedule, avg_rate, parse_trace

__version__ = "0.1.0"

__all__ = [
    "SCHEMES",
    "CcConfig",
    "ConfigError",
    "FeedbackMsg",
    "NetAssist",
    "NetAssistConfig",
    "RunResult",
    "SimConfig",
    "Simulation",
    "TraceError",
    "TraceSchedule",
    "assisted_cwnd_bytes",
    "avg_rate",
    "build_config",
    "compute_power",
    "cubic_k",
    "cubic_window",
    "make_controller",
    "parse_trace",
    "percentile",
    "resolve_schedule",
    "run_simulation",
    "__version__",
]
