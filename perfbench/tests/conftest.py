"""Self-tests and microbenchmarks of the benchmark, kept out of the tier-1
suite (which collects only ``tests/``).

    python3 -m pytest perfbench/tests -m "not microbench"   # self-tests
    python3 -m pytest perfbench/tests -m microbench         # microbenchmarks
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "microbench: pytest-benchmark timing of one natsim entry point")
