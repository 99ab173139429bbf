"""Specification tests and model selection.

Hansen J overidentification test, Arellano-Bond serial correlation
test on differenced residuals, the Hausman fixed-vs-random comparison
(with an explicit invalidity flag for the degenerate zero-variance
case), and information-criterion lag selection. Each test reads the
fit's own ``design`` (its rows, model, dataset and variance components)
and, for GMM fits, its entity ``scores``; only an OD fit's AR test forms
its own, for the differenced equations. ``swamy_arora`` is defined in
:mod:`estimators`, where ``build_design`` runs the same computation on
the sample it has already aligned, and re-exported here; it runs its
within and between regressions on the model's own aligned rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .errors import DiagnosticError
from .estimators import (
    EstimationResult,
    ExogTerm,
    ModelSpec,
    VarianceComponents,
    _invert_weight,
    _ols,
    _scores,
    _spd_inverse,
    build_design,
    swamy_arora,
)
from .instruments import assemble
from .panel import PanelDataset
from .transforms import TransformKind, entity_starts


def chi_square_sf(x: float, df: int) -> float:
    """Upper tail P(X > x) of the chi-square distribution.

    The regularized upper incomplete gamma Q(df/2, x/2) in closed form
    for integer df (Abramowitz and Stegun 26.4.4-5): with h = x/2, e^-h
    sum_{k < df/2} h^k / k!, or for odd df erfc(sqrt h) + e^-h sum_{k <
    (df-1)/2} h^(k+1/2) / Gamma(k + 3/2). Each term is the last times h /
    (k + 1) or h / (k + 3/2); where e^-h would underflow, each is summed
    from its logarithm.
    """
    if x < 0:
        raise ValueError("chi-square statistic must be >= 0")
    if df < 1 or not float(df).is_integer():
        raise ValueError(f"degrees of freedom must be an integer >= 1, got {df}")
    h = x / 2.0
    if h == math.inf:
        return 0.0
    n, odd = divmod(int(df), 2)
    a = 0.5 * odd  # term k carries h^(a + k)
    total = math.erfc(math.sqrt(h)) if odd else 0.0
    if h < 700.0:
        term = math.exp(-h) * (2.0 * math.sqrt(h / math.pi) if odd else 1.0)
        for k in range(n):
            total, term = total + term, term * (h / (a + k + 1))
        return total
    return total + sum(math.exp((a + k) * math.log(h) - h - math.lgamma(a + k + 1))
                       for k in range(n))


def normal_sf(z: float) -> float:
    """Upper tail of the standard normal."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


@dataclass(frozen=True)
class JTestResult:
    statistic: float
    df: int
    p_value: float


def j_test(result: EstimationResult) -> JTestResult:
    """Hansen J test of the overidentifying restrictions.

    J = (Z'e)' W (Z'e) with W the final-step weighting matrix (for
    one-step fits, the clustered moment covariance S = U'U of the
    residuals is inverted instead so the statistic keeps its chi-square
    calibration). S comes as the fit's N x L entity ``scores`` U, so a
    fit with fewer entities than instrument columns gets the pseudo-inverse
    of rank at most N straight from U, as the AR test's weight does.
    Degrees of freedom are the instrument rank minus the number of
    parameters GMM estimates, the columns of the fit's design matrix; a
    within fit's grand-mean intercept is derived after the fit and does
    not count.
    """
    if result.instruments is None:
        raise DiagnosticError("J test needs a result produced by fit_gmm")
    Z = result.instruments.matrix
    gbar = Z.T @ result.residuals
    if result.steps_taken >= 2:
        W, rank = result.weighting_matrix, result.weighting_rank
    else:
        W, rank = _invert_weight(None, "pinv", "J test", result.scores,
                                 full_rank=result.instruments.full_rank)
    rank = min(rank, result.instruments.rank)
    k = result.design.X.shape[1]
    df = rank - k
    if df < 0:
        raise DiagnosticError(
            f"impossible state: instrument rank {rank} below parameter count {k}"
        )
    stat = float(gbar @ W @ gbar)
    if df == 0:
        return JTestResult(stat, 0, 1.0)
    return JTestResult(stat, df, chi_square_sf(stat, df))


@dataclass(frozen=True)
class ArTestResult:
    order: int
    statistic: float
    p_value: float
    n_pairs: int


def _ar_tests(result: EstimationResult):
    """The AR(m) test of a result as a function of m.

    The differenced residuals, design, entity scores U and weight W are
    built once. A first-difference fit supplies them, U as its ``scores``;
    for an orthogonal deviation fit the differenced equation is rebuilt
    and evaluated at the same coefficients, since the test is defined on
    differenced residuals, and its U and pseudo-inverse W are formed.
    """
    fd, design = TransformKind.FIRST_DIFFERENCE, result.design
    kind = design.model.transform
    if kind is TransformKind.ORTHOGONAL_DEVIATION:
        design = build_design(replace(design.model, transform=fd), design.data)
    elif kind is not fd:
        raise DiagnosticError(
            f"serial-correlation test is defined for FD or OD results, not {kind.value!r}"
        )
    X, entity_ids, periods = design.X, design.entity_ids, design.periods
    starts = entity_starts(entity_ids)
    if kind is fd:
        e, Z, U, W = (result.residuals, result.instruments.matrix, result.scores,
                      result.weighting_matrix)
    else:
        e = design.y - X @ result.coefficients
        zmat = assemble(result.instrument_spec, design.data, design.sample, transform=fd)
        Z = zmat.matrix
        U = _scores(Z, e, starts)
        W, _ = _invert_weight(None, "pinv", "AR test", U, full_rank=zmat.full_rank)
    # one key per (entity, period), strictly increasing down the rows,
    # which come entity by entity in period order; a row's order-m lag is
    # the row whose key is m smaller within the same entity
    p0 = periods.min()
    key = entity_ids * (int(periods.max() - p0) + 1) + (periods - p0)
    G = Z.T @ X
    projected = _spd_inverse(G.T @ W @ G, "AR test projection") @ (G.T @ W) @ U.T

    def test(order: int) -> ArTestResult:
        if order < 1:
            raise ValueError("order must be >= 1")
        j = np.searchsorted(key, key - order).clip(max=key.size - 1)
        hit = (key[j] == key - order) & (entity_ids[j] == entity_ids)
        n_pairs = int(hit.sum())
        if n_pairs == 0:
            raise DiagnosticError(f"too few periods for AR({order})")
        lagged = np.where(hit, e[j], 0.0)

        b = float(lagged @ e)
        w = np.add.reduceat(lagged * e, starts)
        term1 = float(w @ w)
        q = X.T @ lagged
        var = term1 - 2.0 * float(q @ (projected @ w)) + float(q @ result.covariance @ q)
        if var <= 0:  # numerical corner: fall back to the leading term
            var = term1
        if var == 0:
            raise DiagnosticError(f"degenerate variance in AR({order}) test")
        z = b / math.sqrt(var)
        return ArTestResult(order, z, 2.0 * normal_sf(abs(z)), n_pairs)

    return test


def ab_serial_correlation(result: EstimationResult, order: int = 2) -> ArTestResult:
    """Arellano-Bond test for order-m serial correlation.

    z = (e_{-m}'e) / sqrt(v) on the differenced residuals, where v
    carries the usual three terms: the clustered product variance, the
    correction for estimated coefficients through the moment projection,
    and the coefficient-covariance quadratic form. Asymptotically
    standard normal under the null of no order-m correlation.
    """
    return _ar_tests(result)(order)


@dataclass(frozen=True)
class HausmanResult:
    valid: bool
    statistic: float | None = None
    df: int | None = None
    p_value: float | None = None
    reason: str | None = None


def hausman(fe: EstimationResult, re: EstimationResult) -> HausmanResult:
    """Hausman comparison of fixed- and random-effects slopes.

    Returns the invalidity flag instead of a statistic when the RE fit
    degenerated to pooled OLS (zero cross-section variance component) or
    when the covariance difference is not positive definite. That is
    judged on the difference in units of the FE standard errors, whose
    smallest eigenvalue must reach 1e-10, so the verdict does not depend
    on the units of the regressors.
    """
    common = [n for n in fe.param_names if n in re.param_names and n != "const"]
    if not common:
        raise DiagnosticError("no common slope coefficients between FE and RE results")
    components = re.design.components
    if components is not None and components.sigma_u2 == 0.0:
        return HausmanResult(
            valid=False,
            reason="zero cross-section variance component; RE coincides with "
                   "pooled OLS and the FE-vs-RE comparison is uninformative",
        )
    fe_idx = [fe.param_names.index(n) for n in common]
    re_idx = [re.param_names.index(n) for n in common]
    v_fe = fe.classical_covariance if fe.classical_covariance is not None else fe.covariance
    v_re = re.classical_covariance if re.classical_covariance is not None else re.covariance
    d = fe.coefficients[fe_idx] - re.coefficients[re_idx]
    v_fe = v_fe[np.ix_(fe_idx, fe_idx)]
    dv = v_fe - v_re[np.ix_(re_idx, re_idx)]
    dv = 0.5 * (dv + dv.T)
    # D^-1/2 dV D^-1/2 with D = diag(V_FE): a regressor's units cancel
    sd = np.sqrt(np.diag(v_fe))
    with np.errstate(divide="ignore", invalid="ignore"):
        unit = dv / np.outer(sd, sd)
    if not np.isfinite(unit).all() or np.linalg.eigvalsh(unit).min() < 1e-10:
        return HausmanResult(
            valid=False,
            reason="covariance difference V_FE - V_RE is not positive definite",
        )
    stat = float(d @ np.linalg.solve(dv, d))
    df = len(common)
    return HausmanResult(True, stat, df, chi_square_sf(stat, df))


@dataclass(frozen=True)
class LagCandidate:
    ar: int
    exog_lags: tuple[tuple[str, int], ...]
    n_params: int
    loglik: float
    aic: float
    schwarz: float
    hannan_quinn: float


@dataclass(frozen=True)
class LagSelectionResult:
    candidates: tuple[LagCandidate, ...]
    chosen: dict[str, LagCandidate]  # criterion name -> minimizing candidate

    def chosen_orders(self, criterion: str) -> tuple[int, dict[str, int]]:
        c = self.chosen[criterion]
        return c.ar, dict(c.exog_lags)


CRITERIA = ("aic", "schwarz", "hannan_quinn")


def lag_selection(
    data: PanelDataset,
    template: ModelSpec,
    max_ar: int = 3,
    max_exog: Mapping[str, int] | None = None,
) -> LagSelectionResult:
    """Choose lag orders by information criteria on a common sample.

    Candidates combine AR orders 1..max_ar (or just 0 when max_ar is 0; a
    negative one is a ValueError) with exogenous lag depths
    0..max_exog[name], whose keys must name exogenous terms of the
    template. A term the mapping omits gets depth 0 (so ``{}`` searches
    depth 0 only); ``None`` takes the template's own depths. They are
    column subsets of one pooled ``build_design``, that of the widest
    candidate, so all are estimated by pooled OLS on the rows where the
    deepest lags exist and their Gaussian log-likelihoods are commensurable.

    Schwarz and Hannan-Quinn are consistent: they pick the true orders
    with probability tending to 1. AIC is not: it keeps a fixed chance of
    overselection, and picks the true AR 1, x lag 0 model on a grid of
    AR 1-3 x x lag 0-1 with asymptotic probability only about 0.664
    (exact when the AR and x-lag scores are uncorrelated).
    """
    if max_exog is None:
        max_exog = {t.name: t.lags for t in template.exogenous}
    exog_names = [t.name for t in template.exogenous]
    if unknown := sorted(set(max_exog) - set(exog_names)):
        raise ValueError(f"max_exog names no exogenous term of the template: {unknown}")
    exog = tuple(ExogTerm(name, max_exog.get(name, 0)) for name in exog_names)
    widest = ModelSpec(template.dependent, max_ar, exog, template.intercept)
    design = build_design(widest, data)
    y, n = design.y, design.n
    columns = widest.regressor_columns()

    ar_options = range(1, max_ar + 1) if max_ar >= 1 else [0]
    lag_options = [range(term.lags + 1) for term in exog]
    candidates = []
    for ar in ar_options:
        for combo in itertools.product(*lag_options):
            limit = {template.dependent: ar, **dict(zip(exog_names, combo))}
            keep = [c for c, (var, lag, _) in enumerate(columns) if lag <= limit[var]]
            if template.intercept:
                keep.append(len(columns))  # const, last
            # a C-ordered copy: X @ beta on the F-ordered design.X[:, keep]
            # takes another BLAS path and can move the loglik by an ulp
            X = np.column_stack([design.X[:, c] for c in keep])
            beta = _ols(y, X, [design.x_names[c] for c in keep])
            resid = y - X @ beta
            ssr = float(resid @ resid)
            if ssr <= 0:
                ssr = np.finfo(float).tiny
            loglik = -0.5 * n * (math.log(2.0 * math.pi) + math.log(ssr / n) + 1.0)
            p = X.shape[1]
            candidates.append(
                LagCandidate(
                    ar=ar,
                    exog_lags=tuple(zip(exog_names, combo)),
                    n_params=p,
                    loglik=loglik,
                    aic=-2.0 * loglik + 2.0 * p,
                    schwarz=-2.0 * loglik + p * math.log(n),
                    hannan_quinn=-2.0 * loglik + 2.0 * p * math.log(math.log(n)),
                )
            )
    chosen = {c: min(candidates, key=lambda cand: getattr(cand, c)) for c in CRITERIA}
    return LagSelectionResult(tuple(candidates), chosen)


@dataclass(frozen=True)
class DiagnosticsReport:
    """Bundle of specification diagnostics for one estimation result."""

    j: JTestResult | None = None
    ar_tests: tuple[ArTestResult, ...] = ()
    variance_components: VarianceComponents | None = None

    def to_json_dict(self) -> dict:
        """The same keys for every report; a test or component that the
        report lacks is null (``ar``: empty)."""
        j, vc = self.j, self.variance_components
        return {
            "j": None if j is None else j.statistic,
            "j_p": None if j is None else j.p_value,
            "j_df": None if j is None else j.df,
            "ar": [
                {"order": t.order, "z": t.statistic, "p": t.p_value}
                for t in self.ar_tests
            ],
            "variance_components": None if vc is None else {
                "sigma_u2": vc.sigma_u2,
                "sigma_e2": vc.sigma_e2,
                "rho_u": vc.rho_u,
                "rho_e": vc.rho_e,
            },
        }


def report_for(result: EstimationResult) -> DiagnosticsReport:
    """Compose the standard diagnostics for a fitted result: the J test of
    a GMM fit and, for FD/OD fits, the AR(1) and AR(2) tests that the
    panel's periods allow."""
    j = None
    ar_tests: list[ArTestResult] = []
    if result.instruments is not None:
        j = j_test(result)
    if result.design.model.transform.is_calendar:
        ar_test = _ar_tests(result)
        for m in (1, 2):
            try:
                ar_tests.append(ar_test(m))
            except DiagnosticError:
                continue
    return DiagnosticsReport(
        j=j,
        ar_tests=tuple(ar_tests),
        variance_components=result.design.components,
    )
