"""The runtime is stdlib-only, as ``dependencies = []`` in pyproject.toml
promises: every module that ``src/natsim`` imports is natsim itself or ships
with Python."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "natsim"


def imported_top_levels(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_runtime_imports_only_the_stdlib():
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = {f"{path.name}: {name}" for path in files
               for name in imported_top_levels(path)
               if name != "natsim" and name not in sys.stdlib_module_names}
    assert not outside
