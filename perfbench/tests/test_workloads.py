"""Smoke runs of every workload with its checks, at small sizes."""

import json
from pathlib import Path

import pytest

import tracer
import workloads

REFERENCE = json.loads((Path(workloads.__file__).parent / "reference.json").read_text())


@pytest.fixture(scope="module")
def pruned():
    return tracer.install_pruned_counter()


def _smoke(wl, reference=None):
    first = wl.op(0)
    assert wl.check(wl.op(1), first) == []
    assert wl.verify(first, reference) == []
    return first


def test_replicate_brand(tmp_path, pruned):
    wl = workloads.ReplicateBrand(5, tmp_path)
    before = pruned.columns
    code, text = _smoke(wl, REFERENCE["replicate-brand"]["all"])
    assert code == 0 and text.startswith("row,pooled,fe,re,od,fd")
    # FE prunes its const instrument: two replicate runs and verify's fits
    assert pruned.columns - before == 3
    assert (tmp_path / "replicate_manifest.json").is_file()
    assert not Path("replicate_manifest.json").exists()


def test_mc_odfd(tmp_path):
    out = _smoke(workloads.McOdfd(4, tmp_path, n_entities=60))
    assert [e.n_failed for e in out.estimators] == [0, 0]


def test_fit_large_n(tmp_path):
    out = _smoke(workloads.FitLargeN(4, tmp_path, n_entities=120))
    assert set(out) == {"fd", "od"}


def test_reference_mismatch_is_reported(tmp_path):
    wl = workloads.FitLargeN(2, tmp_path, n_entities=120)
    first = wl.op(0)
    reference = wl.summarize(first)
    assert wl.verify(first, reference) == []
    reference["fd"]["coef"][0] *= 1 + 1e-8  # two-step: 1e-10 relative bound
    reference["digest"] = "0" * 64
    problems = wl.verify(first, reference)
    assert len(problems) == 2 and "reference" in problems[0]


def test_changed_output_fails_the_per_op_check(tmp_path):
    wl = workloads.ReplicateBrand(0, tmp_path)
    code, text = wl.op(0)
    assert wl.check((code, text.replace("258", "259")), (code, text)) != []
    assert wl.verify((1, ""), None) == ["replicate exited 1"]
