"""Fixtures shared by the test modules."""

import importlib.util
import sys
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def load_tool():
    """``load_tool("counts")`` runs the script ``tools/counts.py`` as a new
    module and returns it, with ``sys.path`` left as it was."""
    def load(name):
        path = sys.path[:]   # a script may put src/ and perfbench/ on the path
        try:
            spec = importlib.util.spec_from_file_location(
                name, Path(__file__).resolve().parents[1] / "tools" / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        finally:
            sys.path[:] = path
        return module
    return load
