"""The library names the benchmark under ``perfbench/`` calls and traces.

The tracer wraps each function of ``perfbench/tracer.TRACED`` at its
``dynpanel`` module, and the workloads import the library at load time;
removing or renaming one of those names would break only the benchmark.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # its dataclasses look their module up
    return module


TRACED = load("tracer").TRACED


@pytest.mark.parametrize("module, name", [(m, f) for m, fns in TRACED.items() for f in fns])
def test_every_traced_function_is_a_library_attribute(module, name):
    assert callable(getattr(importlib.import_module(f"dynpanel.{module}"), name))


def test_workloads_import():
    assert load("workloads").SPAN_PATTERN
