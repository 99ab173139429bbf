"""The library names the benchmark under ``perfbench/`` calls and traces.

The tracer wraps each function of ``perfbench/tracer.TRACED`` at its
``dynpanel`` module, and the workloads import the library at load time;
removing or renaming one of those names would break only the benchmark.
Each workload also runs once here, with its checks, at the small sizes of
``perfbench/tests``: that suite cannot join this one's test paths, as
both hold a ``conftest`` module that their tests import by name.
"""

import importlib
import importlib.util
import json
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
WORKLOADS = load("workloads")


@pytest.mark.parametrize("module, name", [(m, f) for m, fns in TRACED.items() for f in fns])
def test_every_traced_function_is_a_library_attribute(module, name):
    assert callable(getattr(importlib.import_module(f"dynpanel.{module}"), name))


def test_workloads_import():
    assert load("workloads").SPAN_PATTERN


@pytest.mark.parametrize("name, seed, sizes", [
    ("replicate-brand", 5, {}),
    ("mc-odfd", 4, {"n_entities": 60}),
    ("fit-large-n", 4, {"n_entities": 120}),
])
def test_workload_smoke(tmp_path, name, seed, sizes):
    workload = WORKLOADS.WORKLOADS[name](seed, tmp_path, **sizes)
    first = workload.op(0)
    assert workload.check(workload.op(1), first) == []
    # only replicate-brand's reference holds at every size: its panel is fixed
    reference = None
    if name == "replicate-brand":
        reference = json.loads((PERFBENCH / "reference.json").read_text())[name]["all"]
    assert workload.verify(first, reference) == []
