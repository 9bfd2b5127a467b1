"""Statistics helpers for the benchmark: medians, the tail-percentile rule,
and the deep size of an object graph."""

from __future__ import annotations

import gc
import statistics
import sys
import types

# Candidate tail quantiles as exact fractions, highest first.
TAIL_QUANTILES = ((999, 1000), (99, 100), (9, 10))
# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def nearest_rank(ordered: list, num: int, den: int):
    """Nearest-rank quantile num/den of an ascending list (exact integer rank)."""
    rank = max(1, -(-num * len(ordered) // den))
    return ordered[rank - 1]


def tail_quantile(n: int) -> tuple[int, int]:
    """Highest candidate quantile with at least MIN_BEYOND of n samples beyond
    its nearest rank; the median when no candidate qualifies."""
    for num, den in TAIL_QUANTILES:
        rank = -(-num * n // den)
        if n - rank >= MIN_BEYOND:
            return num, den
    return 1, 2


def timing_metrics(prefix: str, samples_s: list[float]) -> dict[str, tuple[float, str]]:
    """A host-time distribution as median, supported tail, its quantile and
    the sample count (times in microseconds)."""
    n = len(samples_s)
    if n == 0:
        return {f"{prefix}_us_p50": (0.0, "us"), f"{prefix}_us_tail": (0.0, "us"),
                f"{prefix}_tail_q": (0.5, "ratio"), f"{prefix}_n": (0, "count")}
    ordered = sorted(samples_s)
    num, den = tail_quantile(n)
    return {
        f"{prefix}_us_p50": (nearest_rank(ordered, 1, 2) * 1e6, "us"),
        f"{prefix}_us_tail": (nearest_rank(ordered, num, den) * 1e6, "us"),
        f"{prefix}_tail_q": (num / den, "ratio"),
        f"{prefix}_n": (n, "count"),
    }


_SKIP = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType,
         types.MethodType, types.CodeType)


def deep_size(root) -> int:
    """Bytes held by every object reachable from root, each counted once.

    Classes, modules and functions are shared program state, not data, and
    are neither counted nor followed.
    """
    seen: set[int] = set()
    stack = [root]
    total = 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, _SKIP):
            continue
        seen.add(id(obj))
        total += sys.getsizeof(obj)
        stack.extend(gc.get_referents(obj))
    return total
