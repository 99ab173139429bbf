"""Self-tests of the benchmark's tracer: self-time arithmetic and the
restoring of every wrapped module attribute."""

import sys

import pytest

import tracer
import workloads


def test_self_time_subtracts_direct_children_only():
    spans = [
        tracer.Span("a", 0.0, 10.0),
        tracer.Span("b", 1.0, 4.0, parent=0),
        tracer.Span("c", 2.0, 3.0, parent=1),
        tracer.Span("b", 5.0, 6.0, parent=0),
        tracer.Span("a", 20.0, 21.0),
    ]
    out = tracer.self_times(spans)
    assert out["a"] == (2, pytest.approx(6.0 + 1.0))
    assert out["b"] == (2, pytest.approx(2.0 + 1.0))
    assert out["c"] == (1, pytest.approx(1.0))
    total_self = sum(s for _, s in out.values())
    assert total_self == pytest.approx(10.0 + 1.0)  # root durations


def _bound_attributes():
    return {
        (module.__name__, attr): value
        for module, attr, value, _ in tracer._bindings()
    }


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    wl = workloads.FitLargeN(0, tmp_path, n_entities=60)
    before = _bound_attributes()
    assert ("dynpanel.simulate", "fit_gmm") in before  # a caller's own binding
    t = tracer.Tracer()
    with tracer.traced(t):
        for (mod, attr), original in before.items():
            assert getattr(sys.modules[mod], attr) is not original
        wl.op(0)
    for (mod, attr), original in before.items():
        assert getattr(sys.modules[mod], attr) is original
    assert _bound_attributes() == before

    with pytest.raises(RuntimeError):
        with tracer.traced(tracer.Tracer()):
            raise RuntimeError("boom")
    assert _bound_attributes() == before


def test_spans_nest_and_counts_come_from_results(tmp_path):
    wl = workloads.FitLargeN(1, tmp_path, n_entities=60)
    t = tracer.Tracer()
    with tracer.traced(t):
        out = wl.op(0)
    fits = [s for s in t.spans if s.name == "estimators.fit_gmm"]
    assert len(fits) == 2
    fit_index = t.spans.index(fits[0])
    children = {s.name for s in t.spans if s.parent == fit_index}
    assert {"estimators.build_design", "instruments.assemble"} <= children
    assert t.counts["estimators.fit_gmm.steps"] == sum(r.steps_taken for r, _ in out.values())
    csv_rows = len(wl.csv.read_text().splitlines()) - 1
    assert t.counts["panel.ingest_long_csv.rows"] == csv_rows
    assert "estimators.fit_gmm.failed" not in t.counts
