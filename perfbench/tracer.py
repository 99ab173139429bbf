"""Outside-in tracing of the dynpanel modules.

The tracer wraps each traced function at every module attribute that
holds it, so callers that look the name up at call time (``fit_gmm``
inside ``simulate``, ``assemble`` inside ``estimators``, ...) reach the
wrapper. Spans stay in memory; nothing in ``src/`` is edited, and every
attribute is restored when the ``traced`` block exits.
"""

from __future__ import annotations

import functools
import logging
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

# Traced functions per layer module. ``ratings`` and ``errors`` lie on no
# workload's path.
TRACED = {
    "panel": ("ingest_long_csv", "align", "lagged_grid"),
    "transforms": ("apply_grid", "reconstruct_levels"),
    "simulate": ("generate", "run_experiment"),
    "estimators": ("build_design", "fit_gmm"),
    "instruments": ("assemble",),
    "diagnostics": ("swamy_arora", "j_test", "ab_serial_correlation", "report_for"),
    "cli": ("main",),
}


def _fit_gmm_counts(result):
    n_cols = result.instruments.n_columns
    rank = result.weighting_rank
    return {
        "steps": result.steps_taken,
        "pinv_fits": int(rank < n_cols),
        "rank": rank,
        "columns": n_cols,
    }


# Counts read from a traced call's result.
COUNTERS: dict[str, Callable] = {
    "panel.ingest_long_csv": lambda r: {"rows": int(r.entity_period_counts().sum())},
    "transforms.apply_grid": lambda r: {"cells": int(r[1].size)},
    "simulate.generate": lambda r: {"cells": r.n_entities * r.n_periods},
    "estimators.build_design": lambda r: {"rows": int(r.n)},
    "instruments.assemble": lambda r: {"columns": r.n_columns},
    "estimators.fit_gmm": _fit_gmm_counts,
    "diagnostics.ab_serial_correlation": lambda r: {"pairs": r.n_pairs},
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None


@dataclass
class Tracer:
    """In-memory span and counter store for one traced run."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            span = Span(name, 0.0, parent=self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.count(f"{name}.failed")
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                for key, n in counter(result).items():
                    self.count(f"{name}.{key}", n)
            return result

        return traced_call


def self_times(spans: list[Span]) -> dict[str, tuple[int, float]]:
    """Calls and self seconds per span name.

    A span's self time is its duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    out: dict[str, tuple[int, float]] = {}
    for s, c in zip(spans, child):
        calls, total = out.get(s.name, (0, 0.0))
        out[s.name] = (calls + 1, total + (s.end - s.start) - c)
    return out


def _bindings():
    """(module, attribute, original, qualified name) for every attribute
    of a loaded dynpanel module that holds a traced function."""
    targets = {}
    for mod_name, funcs in TRACED.items():
        module = sys.modules[f"dynpanel.{mod_name}"]
        for f in funcs:
            targets[id(getattr(module, f))] = (getattr(module, f), f"{mod_name}.{f}")
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "dynpanel" and not mod_name.startswith("dynpanel."):
            continue
        for attr, value in list(vars(module).items()):
            hit = targets.get(id(value))
            if hit is not None and hit[0] is value:
                yield module, attr, value, hit[1]


@contextmanager
def traced(tracer: Tracer):
    """Route every call of a traced function through ``tracer``."""
    bound = list(_bindings())
    wrappers: dict[str, Callable] = {}
    try:
        for module, attr, original, name in bound:
            if name not in wrappers:
                wrappers[name] = tracer.wrap(name, original)
            setattr(module, attr, wrappers[name])
        yield tracer
    finally:
        for module, attr, original, _ in bound:
            setattr(module, attr, original)


class PrunedColumnCounter(logging.Handler):
    """Counts the instrument columns ``dynpanel.instruments`` reports as
    pruned, in place of printing its warnings to stderr."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.columns = 0

    def emit(self, record: logging.LogRecord) -> None:
        if record.getMessage().startswith("pruned "):
            self.columns += int(record.args[0])


def install_pruned_counter() -> PrunedColumnCounter:
    handler = PrunedColumnCounter()
    log = logging.getLogger("dynpanel.instruments")
    log.addHandler(handler)
    log.propagate = False
    return handler
