"""The benchmark's three workloads and their correctness checks.

Each workload builds its inputs from the seed in ``__init__`` (the set-up
the benchmark times), runs one operation in ``op``, checks every timed
operation cheaply in ``check`` and one operation in depth in ``verify``.
Operations call the library through module attributes (``cli.main``,
``simulate.run_experiment``, ...), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from pathlib import Path

import numpy as np

from dynpanel import cli, diagnostics, estimators, panel, simulate
from dynpanel.errors import EstimationError
from dynpanel.estimators import ONE_STEP, TWO_STEP, ExogTerm, ModelSpec
from dynpanel.instruments import DynamicInstrument, InstrumentSpec, StaticInstrument
from dynpanel.simulate import DgpSpec
from dynpanel.transforms import TransformKind

# Reference tolerances, relative. One- and two-step results follow the
# roadmap's 1e-10. N-step fits stop once the coefficient sup-norm step is
# below tol = 1e-8; near the stop the iteration contracts by c ~ 0.9 per
# step (the reference's last steps), so a stop one step early or late puts
# the coefficients up to 2c/(1-c) * tol ~ 2e-7 apart. The smallest brand
# coefficient is bv ~ 2e-2, and 2e-7 on it moves residuals by
# |bv| ~ 5e3 * 2e-7 ~ 1e-3 against a residual scale of ~30; both effects
# stay below 1e-5 relative, which is the n-step bound.
RTOL = 1e-10
RTOL_N_STEP = 1e-5
FOC_RTOL = 1e-9

# the test suite's brand fixture: 31 firms, 320 present cells
SPAN_PATTERN = [11] * 20 + [9] * 10 + [10]
BRAND_SEED = 3


def brand_panel(seed: int = BRAND_SEED) -> panel.PanelDataset:
    """31-firm pp/bv/bt panel with the suite's span pattern and DGP."""
    rng = np.random.default_rng(seed)
    T = 11
    shape = (len(SPAN_PATTERN), T)
    pp, bv, bt = (np.full(shape, np.nan) for _ in range(3))
    for a, span in enumerate(SPAN_PATTERN):
        start = int(rng.integers(0, T - span + 1))
        omega = rng.normal(0, 100)
        level = 300.0 + omega
        for j in range(start, start + span):
            bv[a, j] = abs(rng.normal(5000, 2000))
            bt[a, j] = float(rng.choice(np.arange(47.5, 100, 2.5)))
            level = 0.8 * level + 0.02 * bv[a, j] + 2.0 * bt[a, j] + omega + rng.normal(0, 30)
            pp[a, j] = level
    entities = [f"firm{a + 1}" for a in range(len(SPAN_PATTERN))]
    return panel.from_arrays(entities, range(2005, 2016), {"pp": pp, "bv": bv, "bt": bt})


def panel_digest(data: panel.PanelDataset) -> str:
    """SHA-256 over labels, values and masks of every series."""
    h = hashlib.sha256()
    h.update(repr((data.entities, data.periods)).encode())
    for name in sorted(data.variables):
        s = data.require(name)
        h.update(name.encode())
        h.update(np.ascontiguousarray(s.values).tobytes())
        h.update(np.ascontiguousarray(s.mask).tobytes())
    return h.hexdigest()


def fit_summary(result, report) -> dict:
    """The statistics compared against the stored reference."""
    return {
        "weighting": result.weighting.kind,
        "n": result.sample_size,
        "coef": [float(c) for c in result.coefficients],
        "se": [float(s) for s in result.standard_errors],
        "j": report.j.statistic,
        "ar": [t.statistic for t in report.ar_tests],
    }


def _values(summary: dict) -> list[float]:
    return summary["coef"] + summary["se"] + [summary["j"]] + summary["ar"]


def check_finite(label: str, summary: dict) -> list[str]:
    if all(math.isfinite(v) for v in _values(summary)):
        return []
    return [f"{label}: non-finite statistic in {summary}"]


def compare(label: str, got: dict, ref: dict) -> list[str]:
    """Differences between a fit summary and its reference."""
    if got["n"] != ref["n"] or len(_values(got)) != len(_values(ref)):
        return [f"{label}: sample or statistic count differs from the reference"]
    rtol = RTOL_N_STEP if ref["weighting"] == "n_step" else RTOL
    bad = [
        (g, r) for g, r in zip(_values(got), _values(ref))
        if not math.isclose(g, r, rel_tol=rtol)
    ]
    return [f"{label}: {g!r} != reference {r!r} (rtol {rtol:g})" for g, r in bad]


def check_foc(label: str, result) -> list[str]:
    """GMM first-order condition X'Z W Z'e = 0 at the reported estimate."""
    X = result.design_matrix
    Z = result.instruments.matrix
    W = result.weighting_matrix
    e = result.residuals
    gW = (X.T @ Z) @ W
    foc = gW @ (Z.T @ e)
    # rounding of Z'e and of the solve, term by term
    scale = np.abs(gW) @ (np.abs(Z).T @ (np.abs(e) + np.abs(result.fitted_transformed)))
    worst = float(np.max(np.abs(foc) / scale))
    if worst <= FOC_RTOL:
        return []
    return [f"{label}: first-order condition off by {worst:.3e} of its scale"]


class ReplicateBrand:
    """``dynpanel replicate`` on the 31-firm brand panel.

    Every seed gives the suite's brand panel (DGP seed 3) with its firms
    reordered and renamed and its years shifted: the bytes the program
    reads change with the seed, the numerical problem does not. Freshly
    drawn 31-firm panels are not used, because n-step GMM fails to
    converge within 500 iterations on about half of them (see
    ``report_only``), which would make the operation fail by seed.
    """

    name = "replicate-brand"
    CALIBRATION = "mixed"
    SPECS = ("pooled", "fe", "re", "od", "fd")
    EXOG = ("bv", "bt")
    SAMPLE_SIZES = {"pooled": 289, "fe": 289, "re": 289, "od": 258, "fd": 258}

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        base = brand_panel()
        rng = np.random.default_rng(seed)
        order = rng.permutation(base.n_entities)
        shift = int(rng.integers(0, 50))
        data = panel.from_arrays(
            [f"insurer{seed}-{k}" for k in range(base.n_entities)],
            [p + shift for p in base.periods],
            {v: base.require(v).values[order] for v in base.variables},
        )
        self.csv = workdir / "brand.csv"
        data.to_long_csv(self.csv)
        self.argv = [
            "replicate", "--data", str(self.csv), "--weighting", "n-step",
            "--max-iter", "500", "--tol", "1e-8", "--out", "csv",
            "--output-dir", str(workdir),
        ]

    def op(self, i: int):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.argv)
        return code, buf.getvalue()

    def check(self, out, first) -> list[str]:
        if out[0] != 0:
            return [f"replicate exited {out[0]}"]
        return [] if out == first else ["replicate output differs from the first run"]

    @classmethod
    def spec(cls, name: str) -> tuple[ModelSpec, InstrumentSpec]:
        """The model and default instruments ``replicate`` documents."""
        exog = tuple(ExogTerm(v) for v in cls.EXOG)
        if name in ("od", "fd"):
            kind = {"od": TransformKind.ORTHOGONAL_DEVIATION,
                    "fd": TransformKind.FIRST_DIFFERENCE}[name]
            model = ModelSpec("pp", 1, exog, intercept=False, transform=kind)
            dyn = tuple(DynamicInstrument(v, 2) for v in ("pp",) + cls.EXOG)
            return model, InstrumentSpec(dynamic=dyn)
        kind, effects = {
            "pooled": (TransformKind.NONE, "none"),
            "fe": (TransformKind.WITHIN, "fixed"),
            "re": (TransformKind.QUASI_DEMEAN, "random"),
        }[name]
        model = ModelSpec("pp", 1, exog, intercept=True, effects=effects, transform=kind)
        static = tuple(StaticInstrument(v, 0, 2) for v in cls.EXOG)
        return model, InstrumentSpec(static=static, include_intercept=True)

    def direct_fits(self) -> dict:
        data = panel.ingest_long_csv(self.csv)
        weighting = estimators.n_step(max_iter=500, tol=1e-8)
        fits = {}
        for name in self.SPECS:
            model, inst = self.spec(name)
            result = estimators.fit_gmm(model, data, inst, weighting=weighting,
                                        on_singular="pinv")
            fits[name] = (result, diagnostics.report_for(result))
        return fits

    def summarize(self, out) -> dict:
        return {name: fit_summary(*fit) for name, fit in self.direct_fits().items()}

    def verify(self, out, reference: dict | None) -> list[str]:
        code, text = out
        if code != 0:
            return [f"replicate exited {code}"]
        rows = {}
        for line in text.strip().splitlines()[1:]:
            label, *cells = line.split(",")
            rows[label] = cells
        problems = []
        fits = self.direct_fits()
        for c, name in enumerate(self.SPECS):
            result, report = fits[name]
            summary = fit_summary(result, report)
            problems += check_finite(name, summary)
            problems += check_foc(name, result)
            if result.sample_size != self.SAMPLE_SIZES[name]:
                problems.append(f"{name}: {result.sample_size} obs, expected "
                                f"{self.SAMPLE_SIZES[name]}")
            expected = {"n": str(result.sample_size), "r2": repr(result.r_squared_unweighted),
                        "j": repr(report.j.statistic), "j_p": repr(report.j.p_value)}
            for i, p in enumerate(result.param_names):
                expected[p] = repr(float(result.coefficients[i]))
                expected[f"{p}:se"] = repr(float(result.standard_errors[i]))
                expected[f"{p}:t"] = repr(float(result.t_statistics[i]))
            for label, want in expected.items():
                got = rows.get(label, [""] * len(self.SPECS))[c]
                if got != want:
                    problems.append(f"{name}: CLI {label} {got!r} != direct fit {want!r}")
            if reference is not None:
                problems += compare(name, summary, reference[name])
        return problems

    def report_only(self) -> list[str]:
        """N-step convergence on a freshly drawn brand panel of this seed."""
        data = brand_panel(self.seed)
        weighting = estimators.n_step(max_iter=500, tol=1e-8)
        parts = []
        for name in ("od", "fd"):
            model, inst = self.spec(name)
            try:
                result = estimators.fit_gmm(model, data, inst, weighting=weighting,
                                            on_singular="pinv")
                parts.append(f"{name} converged in {result.steps_taken} steps")
            except EstimationError:
                parts.append(f"{name} did not converge in 500 iterations")
        return [f"n-step on a fresh brand panel drawn with seed {self.seed}: "
                + ", ".join(parts)]


class McOdfd:
    """One Monte Carlo replication of the OD-vs-FD experiment."""

    name = "mc-odfd"
    CALIBRATION = "loops"

    def __init__(self, seed: int, workdir: Path, n_entities: int = 500):
        self.seed = seed
        self.n_entities = n_entities
        self.configs = simulate.fd_od_comparison_configs(weighting=ONE_STEP)

    def dgp(self, i: int) -> DgpSpec:
        return DgpSpec(n_entities=self.n_entities, n_periods=11, rho=0.85,
                       seed=self.seed * 1_000_000 + i)

    def op(self, i: int):
        return simulate.run_experiment(self.dgp(i), self.configs, reps=1)

    def check(self, out, first) -> list[str]:
        problems = []
        for est in out.estimators:
            if est.n_failed:
                problems.append(f"{est.name}: {est.n_failed} failed replication(s)")
            for coef, s in est.coef_stats.items():
                if not (math.isfinite(s.mean) and math.isfinite(s.mean_se)):
                    problems.append(f"{est.name}: non-finite {coef}")
        return problems

    def direct_fits(self) -> tuple[panel.PanelDataset, dict]:
        data = simulate.generate(self.dgp(0))
        fits = {}
        for cfg in self.configs:
            result = cfg.fit(data)
            fits[cfg.name] = (result, diagnostics.report_for(result))
        return data, fits

    def summarize(self, out) -> dict:
        data, fits = self.direct_fits()
        entry = {name: fit_summary(*fit) for name, fit in fits.items()}
        entry["digest"] = panel_digest(data)
        return entry

    def verify(self, out, reference: dict | None) -> list[str]:
        problems = self.check(out, out)
        data, fits = self.direct_fits()
        digest = panel_digest(data)
        if panel_digest(simulate.generate(self.dgp(0))) != digest:
            problems.append("generate gave two different panels for one spec")
        for est in out.estimators:
            result, report = fits[est.name]
            summary = fit_summary(result, report)
            problems += check_finite(est.name, summary)
            problems += check_foc(est.name, result)
            for i, p in enumerate(result.param_names):
                s = est.coef_stats[p]
                if (s.mean, s.mean_se) != (result.coefficients[i], result.standard_errors[i]):
                    problems.append(f"{est.name}: Monte Carlo {p} differs from a direct fit")
            if reference is not None:
                problems += compare(est.name, summary, reference[est.name])
        if reference is not None and reference["digest"] != digest:
            problems.append("generate output differs from the reference digest")
        return problems

    def report_only(self) -> list[str]:
        return []


class FitLargeN:
    """Ingest a 2,000-entity gapped panel, then FD and OD two-step fits.

    At 5,000 entities an operation takes 3-5 s, and the few a run holds
    left its median spreading 11-13% between runs; at 2,000 it is 3-4%.
    """

    name = "fit-large-n"
    CALIBRATION = "loops"
    SPECS = {
        "fd": (TransformKind.FIRST_DIFFERENCE, DynamicInstrument("y", 2, 3)),
        "od": (TransformKind.ORTHOGONAL_DEVIATION, DynamicInstrument("y", 1, 3)),
    }

    def __init__(self, seed: int, workdir: Path, n_entities: int = 2000):
        self.dgp = DgpSpec(n_entities=n_entities, n_periods=8, missingness=0.1, seed=seed)
        data = simulate.generate(self.dgp)
        self.digest = panel_digest(data)
        self.csv = workdir / "large.csv"
        data.to_long_csv(self.csv)
        self.specs = [
            (name, simulate.ar1_model(kind),
             InstrumentSpec(dynamic=(dyn,), static=(StaticInstrument("x1", 0, 0),)))
            for name, (kind, dyn) in self.SPECS.items()
        ]

    def op(self, i: int):
        data = panel.ingest_long_csv(self.csv)
        out = {}
        for name, model, inst in self.specs:
            result = estimators.fit_gmm(model, data, inst, weighting=TWO_STEP,
                                        windmeijer=True)
            out[name] = (result, diagnostics.report_for(result))
        return out

    def check(self, out, first) -> list[str]:
        if self._summaries(out) == self._summaries(first):
            return []
        return ["fit output differs from the first run"]

    @staticmethod
    def _summaries(out) -> dict:
        return {name: fit_summary(*fit) for name, fit in out.items()}

    def summarize(self, out) -> dict:
        entry = self._summaries(out)
        entry["digest"] = self.digest
        return entry

    def verify(self, out, reference: dict | None) -> list[str]:
        problems = []
        if panel_digest(simulate.generate(self.dgp)) != self.digest:
            problems.append("generate gave two different panels for one spec")
        if panel_digest(panel.ingest_long_csv(self.csv)) != self.digest:
            problems.append("the CSV does not read back as the generated panel")
        for name, (result, report) in out.items():
            summary = fit_summary(result, report)
            problems += check_finite(name, summary)
            problems += check_foc(name, result)
            if len(report.ar_tests) != 2:
                problems.append(f"{name}: {len(report.ar_tests)} AR tests, expected 2")
            if reference is not None:
                problems += compare(name, summary, reference[name])
        if reference is not None and reference["digest"] != self.digest:
            problems.append("generate output differs from the reference digest")
        return problems

    def report_only(self) -> list[str]:
        return []


WORKLOADS = {w.name: w for w in (ReplicateBrand, McOdfd, FitLargeN)}
