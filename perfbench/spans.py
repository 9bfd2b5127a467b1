"""Span recording around natsim's layer boundaries, applied from outside.

``instrument`` replaces the public entry points of each ``natsim`` module,
and the event handlers the loop dispatches into it, with wrappers that
charge wall time to the owning layer.  A layer's self time is a span's
duration minus the time its child spans cover, so nested spans telescope:
the self times of everything under a root span add up to the root's
duration.  Spans are aggregated as they close (self time per layer, calls
per span name, and durations of calls entering a sampled layer) rather
than stored one by one, which would cost more memory than the simulation.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Callable

CC_CLASSES = ("Controller", "CubicController", "NatcpController",
              "NaCubicController", "TgController")
CC_METHODS = ("on_ack", "on_loss", "on_feedback", "revert")

# layer -> (module, class or None for module-level functions, attributes)
TARGETS: dict[str, list[tuple[str, str | None, tuple[str, ...]]]] = {
    "trace": [
        ("natsim.trace", "TraceSchedule", (
            "__post_init__", "index_at_or_after", "instant", "count_in",
            "capacity_bits", "long_run_bps")),
        ("natsim.trace", None, (
            "parse_trace", "schedule_from_spec", "synth_constant", "synth_step",
            "synth_walk", "avg_rate", "parse_rate")),
    ],
    "emulink": [
        ("natsim.emulink", "BtsLink", (
            "register_ue", "queue_for", "send_downlink", "_arrive",
            "_on_opportunity", "attach_ib", "send_uplink", "probe_rtt",
            "idle_opportunities", "conservation_ok")),
        ("natsim.emulink", "UeQueue", ("offer", "pop")),
        ("natsim.emulink", "PathConfig", ("serialization_us",)),
    ],
    "netassist": [
        ("natsim.netassist", "NetAssist", (
            "emit", "latest_probe_us", "measure_bl_bw", "min_rtt_parts",
            "measure_min_rtt", "overhead_kbps")),
    ],
    "transport": [
        ("natsim.transport", "Sender", (
            "try_send", "process_ack", "apply_decision", "_on_rto_event")),
        ("natsim.transport", "UeReceiver", ("on_data", "active_flows", "expected")),
    ],
    "cc": [
        *(("natsim.cc", cls, CC_METHODS) for cls in CC_CLASSES),
        ("natsim.cc", "TgController", ("rtt_estimate_us",)),
        ("natsim.cc", None, ("make_controller",)),
    ],
    "engine": [
        ("natsim.engine", "EventLoop", ("schedule", "run_until")),
        ("natsim.engine", "Simulation", (
            "__init__", "run", "_collect", "_log", "_transmit_ack",
            "_on_ack_arrival", "_emit_feedback", "_oob_arrive",
            "_handle_feedback", "_watchdog_check", "_start_flow")),
        ("natsim.engine", "RunResult", ("summary_row",)),
    ],
    "config": [
        ("natsim.config", "SimConfig", (
            "validate", "require_valid", "flows", "ue_ids")),
        ("natsim.config", None, (
            "build_config", "apply_settings", "parse_config_text",
            "resolve_schedule")),
    ],
    "cli": [
        ("natsim.cli", None, (
            "main", "cmd_run", "config_from_args", "write_csv", "describe")),
    ],
}

# Engine methods that build the per-UE callbacks other layers call back into.
CLOSURE_FACTORIES = ("_make_transmit", "_make_deliver")

# Span name -> key under which its entry durations are kept.
SAMPLED = {
    "emulink.BtsLink._on_opportunity": "emulink.opportunity",
    "netassist.NetAssist.emit": "netassist.emit",
    "transport.UeReceiver.on_data": "transport.on_data",
    **{f"cc.{cls}.{m}": "cc.call" for cls in CC_CLASSES for m in CC_METHODS},
}


class SpanRecorder:
    """Self time per layer, calls per span and entry durations per sample key."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._stack: list[list] = []  # open spans as [layer, seconds in children]

    def wrap(self, layer: str, name: str, fn: Callable,
             sample: str | None = None) -> Callable:
        """fn as a span of ``layer``; with ``sample``, the durations of calls
        that enter the layer from another layer are kept under that key."""
        clock = self.clock
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        samples = self.samples[sample] if sample else None

        def span(*args, **kwargs):
            entering = not stack or stack[-1][0] != layer
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[layer] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                calls[name] += 1
                if samples is not None and entering:
                    samples.append(dt)

        span.__wrapped__ = fn
        return span

    def snapshot(self) -> tuple[dict[str, float], Counter]:
        return dict(self.self_s), Counter(self.calls)

    def reset(self) -> None:
        """Forget everything recorded; wrappers keep their bindings."""
        self.self_s.clear()
        self.calls.clear()
        for values in self.samples.values():
            values.clear()


def _natsim_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "natsim" or name.startswith("natsim."))]


def instrument(rec: SpanRecorder) -> tuple[Callable[[], None], list[str]]:
    """Wrap every target in TARGETS; return an undo function and the targets
    that no longer exist in the code (they are skipped, not fatal)."""
    undo: list[tuple[object, str, object]] = []
    missing: list[str] = []

    def replace(owner, attr, new) -> None:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    for layer, groups in TARGETS.items():
        for modname, owner_name, attrs in groups:
            mod = importlib.import_module(modname)
            if owner_name is None:
                for attr in attrs:
                    fn = getattr(mod, attr, None)
                    if fn is None:
                        missing.append(f"{modname}.{attr}")
                        continue
                    name = f"{layer}.{attr}"
                    span = rec.wrap(layer, name, fn, SAMPLED.get(name))
                    # rebind every module that imported the function by name
                    for m in _natsim_modules():
                        if m.__dict__.get(attr) is fn:
                            replace(m, attr, span)
                continue
            cls = getattr(mod, owner_name, None)
            for attr in attrs:
                if cls is None or not hasattr(cls, attr):
                    missing.append(f"{modname}.{owner_name}.{attr}")
                    continue
                if attr not in vars(cls):
                    continue  # inherited: the defining class's wrapper covers it
                name = f"{layer}.{owner_name}.{attr}"
                replace(cls, attr, rec.wrap(layer, name, vars(cls)[attr],
                                            SAMPLED.get(name)))

    sim_cls = importlib.import_module("natsim.engine").Simulation
    for attr in CLOSURE_FACTORIES:
        factory = vars(sim_cls).get(attr)
        if factory is None:
            missing.append(f"natsim.engine.Simulation.{attr}")
            continue

        def make(*args, _factory=factory, _name=f"engine.Simulation.{attr}"):
            return rec.wrap("engine", _name, _factory(*args))

        replace(sim_cls, attr, make)

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore, missing
