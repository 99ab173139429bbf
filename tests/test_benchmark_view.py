"""The library names the benchmark under ``perfbench/`` calls and traces.

The tracer wraps each function of ``perfbench/tracer.TRACED`` at its
``dynpanel`` module, and the workloads import the library at load time;
removing or renaming one of those names would break only the benchmark.
The same holds for each ``result.<name>`` the workloads and the tracer
read off a fit, some of them only in traced runs.
Each workload also runs once here, with its checks, at the small sizes of
``perfbench/tests``, so the default test paths cover the benchmark; one
call runs both suites: ``python -m pytest tests perfbench/tests``.
"""

import ast
import functools
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from dynpanel import TWO_STEP, fit_gmm, fit_plain
from dynpanel.instruments import DynamicInstrument, InstrumentSpec, StaticInstrument
from dynpanel.simulate import DgpSpec, ar1_model, generate
from dynpanel.transforms import TransformKind

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


def result_reads(name: str) -> set[tuple[str, ...]]:
    """Every attribute chain ``result.a.b...`` read in ``perfbench/<name>.py``."""
    chains = set()
    for node in ast.walk(ast.parse((PERFBENCH / f"{name}.py").read_text())):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id == "result":
            chains.add(tuple(reversed(chain)))
    return chains


READS = sorted(result_reads("workloads") | result_reads("tracer"))


@functools.cache
def fits():
    data = generate(DgpSpec(n_entities=40, n_periods=6, seed=2))
    inst = InstrumentSpec(dynamic=(DynamicInstrument("y", 2, 3),),
                          static=(StaticInstrument("x1", 0, 0),))
    gmm = fit_gmm(ar1_model(TransformKind.FIRST_DIFFERENCE), data, inst, TWO_STEP)
    return gmm, fit_plain(ar1_model(TransformKind.WITHIN), data)


def test_the_benchmark_reads_fit_results():
    assert {("sample_size",), ("design_matrix",), ("weighting_rank",),
            ("instruments", "n_columns")} <= set(READS)


@pytest.mark.parametrize("chain", READS, ids=".".join)
def test_every_result_read_of_the_benchmark_exists(chain):
    gmm, plain = fits()
    value = gmm
    for attr in chain:
        value = getattr(value, attr)
    # a plain fit has every attribute; a chain through one it leaves None
    # (its instruments or weighting) does not apply to it
    value = plain
    for attr in chain:
        if value is None:
            break
        value = getattr(value, attr)
