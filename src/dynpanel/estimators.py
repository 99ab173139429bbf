"""Linear panel estimation engines.

Pooled OLS, fixed effects by the within transform, random effects GLS with
Swamy-Arora quasi-demeaning, and instrumented GMM with one-step,
two-step, and iterated weighting. Reported standard errors are
White-style heteroskedasticity robust throughout; GMM covariance is
clustered by entity.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import get_lapack_funcs

from .errors import EstimationError, RankError, SingularWeightingError
from .instruments import InstrumentMatrix, InstrumentSpec, assemble, intercept_column
from .panel import AlignedSample, PanelDataset, align_columns
from .transforms import (
    TransformKind,
    demean_by_entity,
    entity_means,
    entity_starts,
    reconstruct_levels,
)


@dataclass(frozen=True)
class ExogTerm:
    """One exogenous regressor entered at lags 0..lags."""

    name: str
    lags: int = 0

    def __post_init__(self):
        if self.lags < 0:
            raise ValueError("exogenous lag count must be >= 0")


@dataclass(frozen=True)
class ModelSpec:
    """What to regress on what, with which effects and transform.

    ``ar_lags`` lags of the dependent variable enter as regressors;
    every exogenous term enters at lags 0..term.lags. Differenced and
    deviated equations carry no intercept; fixed effects go with the
    within transform, random effects with quasi-demeaning.
    """

    dependent: str
    ar_lags: int = 1
    exogenous: tuple[ExogTerm, ...] = ()
    intercept: bool = True
    effects: str = "none"  # none | fixed | random
    transform: TransformKind = TransformKind.NONE

    def __post_init__(self):
        if self.ar_lags < 0:
            raise ValueError("ar_lags must be >= 0")
        if self.effects not in ("none", "fixed", "random"):
            raise ValueError(f"unknown effects {self.effects!r}")
        if self.transform.is_calendar:
            if self.intercept:
                raise ValueError("differenced/deviated equations have no intercept")
            if self.effects != "none":
                raise ValueError("FD/OD transforms already remove entity effects")
        if self.effects == "fixed" and self.transform is not TransformKind.WITHIN:
            raise ValueError("fixed effects require the within transform")
        if self.effects == "random" and self.transform is not TransformKind.QUASI_DEMEAN:
            raise ValueError("random effects require the quasi_demean transform")

    def regressor_columns(self) -> list[tuple[str, int, str]]:
        """(variable, lag, display name) for every slope regressor."""
        cols = []
        for i in range(1, self.ar_lags + 1):
            cols.append((self.dependent, i, f"{self.dependent}(-{i})"))
        for term in self.exogenous:
            for l in range(term.lags + 1):
                name = term.name if l == 0 else f"{term.name}(-{l})"
                cols.append((term.name, l, name))
        return cols


@dataclass(frozen=True)
class Weighting:
    """GMM weighting scheme: one_step, two_step, or iterated n_step."""

    kind: str = "two_step"
    max_iter: int = 100
    tol: float = 1e-8

    def __post_init__(self):
        if self.kind not in ("one_step", "two_step", "n_step"):
            raise ValueError(f"unknown weighting {self.kind!r}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if not 0.0 <= self.tol < math.inf:
            raise ValueError(f"tol must be finite and >= 0, got {self.tol!r}")

    @classmethod
    def parse(cls, text: str, max_iter: int = 100, tol: float = 1e-8) -> "Weighting":
        key = text.strip().lower().replace("-", "_")
        return cls(kind=key, max_iter=max_iter, tol=tol)


ONE_STEP = Weighting("one_step")
TWO_STEP = Weighting("two_step")


def n_step(max_iter: int = 100, tol: float = 1e-8) -> Weighting:
    return Weighting("n_step", max_iter=max_iter, tol=tol)


@dataclass(frozen=True)
class VarianceComponents:
    """Swamy-Arora error components of the one-way RE model."""

    sigma_u2: float
    sigma_e2: float
    floored: bool  # between variance fell below the sigma_u2 >= 0 floor

    @property
    def rho_u(self) -> float:
        total = self.sigma_u2 + self.sigma_e2
        return self.sigma_u2 / total if total > 0 else 0.0

    @property
    def rho_e(self) -> float:
        return 1.0 - self.rho_u

    def theta(self, entity_counts: np.ndarray) -> np.ndarray:
        """Per-entity quasi-demeaning weight given sample sizes T_a."""
        t = np.asarray(entity_counts, dtype=float)
        return 1.0 - np.sqrt(self.sigma_e2 / (self.sigma_e2 + t * self.sigma_u2))


@dataclass(frozen=True)
class FitTable:
    """Aligned actual/fitted rows in transformed and level units."""

    entities: tuple[str, ...]
    entity_ids: np.ndarray
    periods: np.ndarray
    actual_transformed: np.ndarray
    fitted_transformed: np.ndarray
    actual_level: np.ndarray
    fitted_level: np.ndarray
    level_mask: np.ndarray  # rows where the level reconstruction is defined

    def to_csv(self, path) -> None:
        """Write one row per sample row; level cells are empty outside ``level_mask``."""
        level = self.level_mask.tolist()
        actual, fitted = ([repr(x) if m else "" for x, m in zip(col.tolist(), level)]
                          for col in (self.actual_level, self.fitted_level))
        rows = zip([self.entities[e] for e in self.entity_ids.tolist()], self.periods.tolist(),
                   map(repr, self.actual_transformed.tolist()),
                   map(repr, self.fitted_transformed.tolist()), actual, fitted)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["entity", "period", "actual_transformed", "fitted_transformed",
                             "actual_level", "fitted_level"])
            writer.writerows(rows)


@dataclass(frozen=True)
class EstimationResult:
    """Coefficients, inference, residuals, and fit diagnostics."""

    method: str
    model: ModelSpec
    param_names: tuple[str, ...]
    coefficients: np.ndarray
    standard_errors: np.ndarray
    t_statistics: np.ndarray
    covariance: np.ndarray
    residuals: np.ndarray
    fitted_transformed: np.ndarray
    fitted_levels: FitTable
    r_squared_weighted: float
    r_squared_unweighted: float
    steps_taken: int
    sample_size: int
    cross_sections: int
    periods_used: int
    entity_ids: np.ndarray
    periods: np.ndarray
    dataset: PanelDataset
    transform: TransformKind
    design_matrix: np.ndarray
    classical_covariance: np.ndarray | None = None
    weighting_matrix: np.ndarray | None = None
    moment_covariance: np.ndarray | None = None
    instruments: InstrumentMatrix | None = None
    instrument_spec: InstrumentSpec | None = None
    weighting: Weighting | None = None
    theta: np.ndarray | None = None
    variance_components: VarianceComponents | None = None
    entity_effects: np.ndarray | None = None
    weighting_rank: int | None = None
    iteration_trace: tuple[float, ...] = ()

    def coefficient(self, name: str) -> float:
        try:
            return float(self.coefficients[self.param_names.index(name)])
        except ValueError:
            raise KeyError(f"no coefficient {name!r}; have {self.param_names}") from None

    def se(self, name: str) -> float:
        return float(self.standard_errors[self.param_names.index(name)])


# ---------------------------------------------------------------------------
# design construction


@dataclass(frozen=True)
class Design:
    """Regression arrays for one model on one dataset, transform applied.

    ``y`` and ``X`` (slope columns only) are in the model's transformed
    units; ``y_level`` and ``X_level`` hold the level values at the same
    rows. ``theta`` is the per-entity quasi-demeaning weight of a random
    effects design, and ``components`` the variance components behind it.
    """

    model: ModelSpec
    data: PanelDataset
    entity_ids: np.ndarray
    periods: np.ndarray
    y: np.ndarray
    X: np.ndarray
    x_names: list[str]
    y_level: np.ndarray
    X_level: np.ndarray
    sample: AlignedSample
    theta: np.ndarray | None = None
    components: VarianceComponents | None = None

    @property
    def n(self) -> int:
        return self.y.size

    def entity_counts(self) -> np.ndarray:
        return np.bincount(self.entity_ids, minlength=self.data.n_entities)


def build_design(
    model: ModelSpec,
    data: PanelDataset,
    components: VarianceComponents | None = None,
) -> Design:
    """Align the model's columns and apply its transform.

    ``align_columns`` keeps the rows where the dependent and every
    regressor column exist, after FD/OD for those transforms. Within and
    quasi-demeaning subtract theta_a times the entity mean over the
    aligned rows: theta_a is 1 for within and Swamy-Arora's weight for
    random effects, from ``components`` or, when none are given,
    estimated here; only a random-effects design keeps ``components``.
    Pooled designs stay in levels. ``sample.matrix`` holds level values
    in every case, the dependent first and then the regressors.
    """
    cols = model.regressor_columns()
    kind = model.transform
    sample, yX = align_columns(data, [(model.dependent, 0)] + [(v, l) for v, l, _ in cols], kind)
    y_level, X_level = sample.matrix[:, 0].copy(), sample.matrix[:, 1:].copy()
    y, X, theta = y_level, X_level, None
    if kind.is_calendar:
        y, X = yX[:, 0], yX[:, 1:]
    elif kind in (TransformKind.WITHIN, TransformKind.QUASI_DEMEAN):
        if kind is TransformKind.QUASI_DEMEAN:
            if components is None:
                components = swamy_arora(model, data)
            if components.sigma_e2 <= 0:
                raise EstimationError(
                    f"idiosyncratic variance must be positive, got {components.sigma_e2}"
                )
            counts = np.bincount(sample.entity_ids, minlength=data.n_entities)
            theta = components.theta(counts)
        shift = 1.0 if theta is None else theta
        y = demean_by_entity(y, sample.entity_ids, shift)
        X = demean_by_entity(X, sample.entity_ids, shift)
    return Design(
        model=model, data=data, entity_ids=sample.entity_ids, periods=sample.periods,
        y=y, X=X, x_names=[n for _, _, n in cols],
        y_level=y_level, X_level=X_level, sample=sample, theta=theta,
        components=components if kind is TransformKind.QUASI_DEMEAN else None,
    )


def swamy_arora(model: ModelSpec, data: PanelDataset) -> VarianceComponents:
    """Swamy-Arora variance components from within and between steps.

    sigma_e^2 is the within mean squared residual with N+k degrees of
    freedom removed; sigma_u^2 comes from the between regression with
    the harmonic-mean correction for unbalanced entity lengths and is
    floored at zero.
    """
    design = build_design(
        replace(model, effects="fixed", transform=TransformKind.WITHIN), data
    )
    Xw, yw = design.X, design.y
    starts = entity_starts(design.entity_ids)
    n, k, n_ent = design.n, Xw.shape[1], starts.size
    df_within = n - n_ent - k
    if df_within <= 0:
        raise EstimationError(
            f"non-positive within degrees of freedom ({df_within}); "
            "panel too short for variance components"
        )
    beta_w = _ols(yw, Xw, design.x_names)
    resid_w = yw - Xw @ beta_w
    sigma_e2 = float(resid_w @ resid_w) / df_within

    ybar = entity_means(design.y_level, starts)
    xbar = entity_means(design.X_level, starts)
    counts = np.diff(starts, append=n)
    Xb = np.column_stack([xbar, np.ones(n_ent)])
    df_between = n_ent - (k + 1)
    if df_between <= 0:
        raise EstimationError(
            f"too few entities ({n_ent}) for the between regression with {k} slopes"
        )
    beta_b, *_ = np.linalg.lstsq(Xb, ybar, rcond=None)
    resid_b = ybar - Xb @ beta_b
    mse_between = float(resid_b @ resid_b) / df_between
    t_harmonic = n_ent / float(np.sum(1.0 / counts))
    sigma_u2 = mse_between - sigma_e2 / t_harmonic
    floored = sigma_u2 <= 0
    return VarianceComponents(
        sigma_u2=max(sigma_u2, 0.0), sigma_e2=sigma_e2, floored=bool(floored)
    )


def _check_rank(X: np.ndarray, names: Sequence[str]) -> None:
    """Raise RankError naming the dependent columns, via pivoted QR."""
    if X.shape[1] == 0:
        return
    r, piv = scipy.linalg.qr(X, mode="r", pivoting=True)
    diag = np.abs(np.diag(r[: X.shape[1], : X.shape[1]]))
    if diag.size == 0 or diag[0] == 0.0:
        rank = 0
    else:
        rank = int(np.sum(diag > 1e-12 * diag[0]))
    if rank < X.shape[1]:
        bad = [names[j] for j in piv[rank:]]
        raise RankError(
            f"regressor matrix is rank deficient; collinear column(s): {bad}", bad
        )


# LAPACK's Cholesky factorization and solve, called directly. cho_factor and
# cho_solve call the same routines with the same arguments, so the results
# are theirs bit for bit, without their wrappers' cost (about 30 us per
# factor-and-solve of a 4 x 4 system, against 3 us of LAPACK work) or their
# finiteness check: a NaN passes through, and callers check.
_POTRF, _POTRS = get_lapack_funcs(("potrf", "potrs"), (np.zeros(1),))


def _cho_solve(A: np.ndarray, B: np.ndarray) -> np.ndarray | None:
    """Solve A X = B by the upper Cholesky factor of A; None if A is not positive definite."""
    c, info = _POTRF(A, lower=False, clean=False)
    if info != 0:
        return None
    return _POTRS(c, B, lower=False)[0]


def _spd_inverse(A: np.ndarray, context: str) -> np.ndarray:
    inv = _cho_solve(A, np.eye(A.shape[0]))
    if inv is None:
        raise EstimationError(f"{context}: matrix not positive definite")
    return inv


def _ols(y: np.ndarray, X: np.ndarray, names: Sequence[str]) -> np.ndarray:
    _check_rank(X, names)
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    return beta


def _white_covariance(X: np.ndarray, resid: np.ndarray) -> np.ndarray:
    bread = _spd_inverse(X.T @ X, "White covariance")
    meat = (X * resid[:, None] ** 2).T @ X
    return bread @ meat @ bread


def _ols_fit(y: np.ndarray, X: np.ndarray, names: Sequence[str]):
    """OLS: coefficients, fitted values, residuals, White and classical covariances."""
    beta = _ols(y, X, names)
    fitted = X @ beta
    resid = y - fitted
    classical = float(resid @ resid) / max(y.size - X.shape[1], 1) * _spd_inverse(
        X.T @ X, "classical covariance"
    )
    return beta, fitted, resid, _white_covariance(X, resid), classical


def _r_squared(y: np.ndarray, fitted: np.ndarray, center: bool) -> float:
    resid = y - fitted
    ss_res = float(resid @ resid)
    dev = y - y.mean() if center else y
    ss_tot = float(dev @ dev)
    return 1.0 - ss_res / ss_tot if ss_tot > 0 else np.nan


def _squared_correlation(y: np.ndarray, fitted: np.ndarray) -> float:
    if y.size < 2 or np.std(y) == 0 or np.std(fitted) == 0:
        return np.nan
    return float(np.corrcoef(y, fitted)[0, 1] ** 2)


def _result(
    method: str,
    design: Design,
    names: Sequence[str],
    beta: np.ndarray,
    cov: np.ndarray,
    resid: np.ndarray,
    fitted: np.ndarray,
    r2: tuple[float, float],
    table: FitTable,
    steps: int = 1,
    trace: Sequence[float] = (),
    **extra,
) -> EstimationResult:
    """The finished result of a fit; ``r2`` is the (weighted, unweighted) pair."""
    se = np.sqrt(np.maximum(np.diag(cov), 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(se > 0, beta / se, np.nan)
    return EstimationResult(
        method=method,
        model=design.model,
        param_names=tuple(names),
        coefficients=beta,
        standard_errors=se,
        t_statistics=t,
        covariance=cov,
        residuals=resid,
        fitted_transformed=fitted,
        fitted_levels=table,
        r_squared_weighted=r2[0],
        r_squared_unweighted=r2[1],
        steps_taken=steps,
        sample_size=design.n,
        cross_sections=int(np.unique(design.entity_ids).size),
        periods_used=int(np.unique(design.periods).size),
        entity_ids=design.entity_ids,
        periods=design.periods,
        dataset=design.data,
        transform=design.model.transform,
        design_matrix=extra.pop("design_matrix", design.X),
        iteration_trace=tuple(trace),
        **extra,
    )


def _add_intercept(
    design: Design, X: np.ndarray, names: list[str], level: bool = False
) -> tuple[np.ndarray, list[str]]:
    """Append the model's intercept column to X, if its equation has one.

    The column is ``intercept_column`` under the design's transform (ones,
    or 1 - theta_a when quasi-demeaned), or ones with ``level=True``. The
    within transform absorbs the intercept, and FD/OD models have none.
    """
    if not design.model.intercept or design.model.transform is TransformKind.WITHIN:
        return X, names
    kind = TransformKind.NONE if level else design.model.transform
    const = intercept_column(design.sample, kind, design.theta)
    return np.column_stack([X, const]), names + ["const"]


def _level_fit(design: Design, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Level fitted values of a pooled, within or quasi-demeaned design.

    A within design's fit is alpha_a + x'beta; its entity effects
    alpha_a = ybar_a - xbar_a'beta over each entity's level rows come
    second, one per entity index, NaN outside the sample. The others
    apply beta, intercept included, to the level regressors.
    """
    if design.model.transform is not TransformKind.WITHIN:
        return _add_intercept(design, design.X_level, [], level=True)[0] @ beta, None
    starts = entity_starts(design.entity_ids)
    alphas = np.full(design.data.n_entities, np.nan)
    alphas[design.entity_ids[starts]] = (
        entity_means(design.y_level, starts) - entity_means(design.X_level, starts) @ beta
    )
    return alphas[design.entity_ids] + design.X_level @ beta, alphas


def _grand_mean_intercept(
    design: Design, beta: np.ndarray, names: list[str], alphas: np.ndarray, *covs
):
    """Append the grand-mean intercept, the mean of alpha_a over entities.

    Each slope covariance V in ``covs`` gains the intercept's delta-method
    row and column through alpha_a = ybar_a - xbar_a'beta: variance
    w'Vw and covariance -Vw, w the mean of the entity means xbar_a.
    Returns beta, names and the extended covariances.
    """
    starts = entity_starts(design.entity_ids)
    w = entity_means(design.X_level, starts).mean(axis=0)
    const = float(np.nanmean(alphas[design.entity_ids[starts]]))
    k = beta.size
    extended = []
    for V in covs:
        ext = np.zeros((k + 1, k + 1))
        ext[:k, :k] = V
        ext[k, k] = float(w @ V @ w)
        ext[:k, k] = ext[k, :k] = -V @ w
        extended.append(ext)
    return (np.append(beta, const), names + ["const"], *extended)


# ---------------------------------------------------------------------------
# plain estimators


def fit_pooled(model: ModelSpec, data: PanelDataset) -> EstimationResult:
    """Pooled OLS with White robust standard errors."""
    if model.effects != "none" or model.transform is not TransformKind.NONE:
        raise ValueError(
            f"pooled OLS fits untransformed models, not {model.transform.value!r}"
        )
    design = build_design(model, data)
    X, names = _add_intercept(design, design.X, list(design.x_names))
    beta, fitted, resid, cov, classical = _ols_fit(design.y, X, names)
    r2 = _r_squared(design.y, fitted, center=model.intercept)
    return _result(
        "pooled", design, names, beta, cov, resid, fitted, (r2, r2),
        _level_fit_table(design, fitted, fitted),
        classical_covariance=classical, design_matrix=X,
    )


def fit_fixed_effects(model: ModelSpec, data: PanelDataset) -> EstimationResult:
    """Fixed effects by the within transform.

    Regresses the entity-demeaned y on the demeaned slopes and derives
    the entity effects alpha_a = ybar_a - xbar_a'beta. The result carries
    the within model and ``method`` ``fe/within``. With an intercept,
    ``const`` is the grand mean of the entity effects, with a
    delta-method standard error.
    """
    design = build_design(
        replace(model, effects="fixed", transform=TransformKind.WITHIN), data
    )
    n_ent = np.unique(design.entity_ids).size
    if n_ent < 2:
        raise EstimationError("fixed effects need at least 2 entities in sample")

    names = list(design.x_names)
    Xw, yw = design.X, design.y
    dead = [n for j, n in enumerate(names) if np.max(np.abs(Xw[:, j])) < 1e-12]
    if dead:
        raise EstimationError(
            f"slope(s) {dead} constant within every entity; not identifiable under fixed effects"
        )
    k = Xw.shape[1]
    beta = _ols(yw, Xw, names)
    resid = yw - Xw @ beta
    fitted_level, alphas = _level_fit(design, beta)
    cov = _white_covariance(Xw, resid)
    sigma2_within = float(resid @ resid) / max(design.n - n_ent - k, 1)
    classical = sigma2_within * _spd_inverse(Xw.T @ Xw, "within covariance")
    beta_full = beta
    if model.intercept:
        beta_full, names, cov, classical = _grand_mean_intercept(
            design, beta, names, alphas, cov, classical
        )

    r2 = _r_squared(design.y_level, fitted_level, center=True)
    fitted = Xw @ beta
    return _result(
        "fe/within", design, names, beta_full, cov, resid, fitted, (r2, r2),
        _level_fit_table(design, fitted_level, fitted),
        classical_covariance=classical,
        entity_effects=alphas,
        design_matrix=Xw,
    )


def fit_random_effects(
    model: ModelSpec,
    data: PanelDataset,
    components: VarianceComponents | None = None,
) -> EstimationResult:
    """Random effects GLS via Swamy-Arora quasi-demeaning.

    theta_a = 1 - sqrt(sigma_e^2 / (sigma_e^2 + T_a sigma_u^2)) with the
    entity's own T_a on unbalanced data. sigma_u = 0 collapses to
    pooled OLS exactly.
    """
    design = build_design(
        replace(model, effects="random", transform=TransformKind.QUASI_DEMEAN),
        data, components,
    )
    Xq, names = _add_intercept(design, design.X, list(design.x_names))
    beta, fitted_q, resid, cov, classical = _ols_fit(design.y, Xq, names)
    fitted_level, _ = _level_fit(design, beta)
    r2 = (_r_squared(design.y, fitted_q, center=True),
          _r_squared(design.y_level, fitted_level, center=True))
    return _result(
        "re", design, names, beta, cov, resid, fitted_q, r2,
        _level_fit_table(design, fitted_level, fitted_q),
        classical_covariance=classical,
        theta=design.theta,
        variance_components=design.components,
        design_matrix=Xq,
    )


# ---------------------------------------------------------------------------
# GMM


def _one_step_weight_blocks(
    design: Design, Z: np.ndarray
) -> np.ndarray:
    """Sum of Z_i' H Z_i with H identity except tridiagonal for FD.

    FD: H is 2 on the diagonal and -1 between rows one period apart, so
    the sum is 2 Z'Z - B - B' with B over those adjacent rows.
    """
    A = Z.T @ Z
    if design.model.transform is not TransformKind.FIRST_DIFFERENCE:
        return A
    adj = (np.diff(design.entity_ids) == 0) & (np.diff(design.periods) == 1)
    B = Z[:-1][adj].T @ Z[1:][adj]
    return 2.0 * A - B - B.T


def _scores(Z: np.ndarray, resid: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Entity score matrix U (N x L), row i holding Z_i'e_i; S = U'U."""
    return np.add.reduceat(Z * resid[:, None], starts, axis=0)


def _invert_weight(
    A: np.ndarray | None, on_singular: str, context: str, U: np.ndarray | None = None,
    full_rank: bool = True,
) -> tuple[np.ndarray, int]:
    """Inverse of a weighting matrix, or its pseudo-inverse, and its rank.

    A is singular when its instruments lack full column rank (``full_rank``
    false) or, given the entity scores U of A = U'U (A may then be None),
    when U has fewer rows than columns. Only otherwise is a Cholesky tried,
    since rounding can let one through on a singular A. The pseudo-inverse
    keeps eigenvalues above 1e-12 of the largest. Given U it is F F' with
    F the factor of ``_weight_factor``; given only A it comes from eigh.
    A non-finite A or eigenvalue means the moment products overflowed, and
    raises EstimationError.

    The Cholesky branch runs the LAPACK calls of cho_factor/cho_solve, so
    its inverse is theirs bit for bit. That branch must not move: the
    random-effects n-step intercept on the brand panel shifts by up to
    7.4e-10 relative when one pp cell moves by one ulp, above the 1e-10
    the golden records are checked to.
    """
    if full_rank and (U is None or U.shape[0] >= U.shape[1]):
        A = U.T @ U if A is None else A
        if not np.isfinite(A).all():
            raise _overflow(context)
        inv = _cho_solve(A, np.eye(A.shape[0]))
        if inv is not None:
            return inv, A.shape[0]
    _require_pinv(on_singular, context)
    if U is not None:
        F, rank = _weight_factor(U, context)
        return F @ F.T, rank
    w, V = np.linalg.eigh(A)
    keep = _kept(w, context)
    return (V[:, keep] / w[keep]) @ V[:, keep].T, int(keep.sum())


def _require_pinv(on_singular: str, context: str) -> None:
    """Raise SingularWeightingError unless a singular weight may be pseudo-inverted."""
    if on_singular == "error":
        raise SingularWeightingError(
            f"{context} weighting matrix is singular; collapse the dynamic "
            "instrument blocks or bound their lag depth (or pass on_singular='pinv')"
        )


def _overflow(context: str) -> EstimationError:
    return EstimationError(
        f"{context} weighting matrix is not finite: the moment products "
        "overflowed; rescale the data"
    )


def _kept(w: np.ndarray, context: str) -> np.ndarray:
    """Mask of the eigenvalues a pseudo-inverse keeps: above 1e-12 of the largest."""
    if not np.isfinite(w).all():
        raise _overflow(context)
    keep = w > 1e-12 * max(w.max(), 0.0)
    if not keep.any():
        raise SingularWeightingError(f"{context} weighting matrix is zero")
    return keep


def _weight_factor(U: np.ndarray, context: str) -> tuple[np.ndarray, int]:
    """Factor F of the pseudo-inverse (U'U)^+ = F F', and its rank.

    With the thin SVD U' = V diag(s) P', the eigenvalues of U'U are s^2;
    on those that ``_kept`` keeps, F = V / s.
    """
    V, s, _ = np.linalg.svd(U.T, full_matrices=False)
    keep = _kept(s * s, context)
    return V[:, keep] / s[keep], int(keep.sum())


def _cross_moments(Z: np.ndarray, e1: np.ndarray, X: np.ndarray,
                   starts: np.ndarray) -> np.ndarray:
    """Entity cross-moments C (N x L x (1+k)): C[a, l] = sum_t Z_tl [e1_t, X_t].

    Residuals at any beta are e1 + X (beta1 - beta) when e1 = y - X beta1,
    so their scores are C @ [1, beta1 - beta].
    """
    return np.stack([_scores(Z, col, starts) for col in np.column_stack([e1, X]).T], axis=-1)


def _solve_normal(P: np.ndarray, r: np.ndarray, names) -> np.ndarray:
    """beta from the GMM normal equations P beta = r, P = G'WG and r = G'Wv."""
    beta = _cho_solve(P, r)
    if beta is None:
        raise RankError(
            f"X'Z W Z'X is singular; instruments may not identify {list(names)}", names
        )
    return beta


def _gmm_beta(G: np.ndarray, W: np.ndarray, v: np.ndarray, names) -> np.ndarray:
    GW = G.T @ W
    return _solve_normal(GW @ G, GW @ v, names)


def _factor_beta(F: np.ndarray, Gv: np.ndarray, names) -> np.ndarray:
    """beta under the weight W = F F', from M = F'[G v]."""
    M = F.T @ Gv
    MG = M[:, :-1]
    return _solve_normal(MG.T @ MG, MG.T @ M[:, -1], names)


def _non_finite(step: int) -> EstimationError:
    return EstimationError(f"GMM step {step} gave a non-finite coefficient")


def fit_gmm(
    model: ModelSpec,
    data: PanelDataset,
    instruments: InstrumentSpec,
    weighting: Weighting = TWO_STEP,
    components: VarianceComponents | None = None,
    on_singular: str = "error",
    windmeijer: bool = False,
) -> EstimationResult:
    """Instrumented GMM on the transformed equation.

    beta = (X'Z W Z'X)^-1 X'Z W Z'y. The one-step weight uses identity
    blocks (tridiagonal for first differences); two-step re-weights with
    the clustered moment covariance of the one-step residuals; n_step
    iterates until the coefficient sup-norm change falls below tol.
    Covariance is the entity-clustered sandwich; ``windmeijer=True``
    applies the finite-sample correction to two-step/n-step standard
    errors.

    ``instruments`` is assembled on the design's sample. A weight is
    singular when the instruments lack full column rank or, for the moment
    covariance S = U'U (U the N x L entity score matrix), when N < L; it
    raises SingularWeightingError, or with ``on_singular='pinv'`` is
    replaced by its pseudo-inverse, tracking the effective rank.

    When S is singular by those tests, the iteration never forms an L x L
    weight: each step's scores are C @ [1, beta1 - beta], with C the
    entity cross-moments of the one-step residuals and of X, and beta
    solves the normal equations of M = F'[Z'X Z'y], F the factor of
    ``_weight_factor`` (W = F F', built once after the loop). Otherwise
    each step inverts S by Cholesky exactly as the direct formulas read,
    so those fits stay bit for bit what the formulas give. A step whose
    coefficients are not finite raises EstimationError.
    """
    design = build_design(model, data, components)
    y = design.y
    X, names = _add_intercept(design, design.X, list(design.x_names))
    k = X.shape[1]
    _check_rank(X, names)

    zmat = assemble(
        instruments, data, design.sample,
        transform=model.transform, theta=design.theta, n_regressors=k,
    )
    Z = zmat.matrix
    G = Z.T @ X
    if np.linalg.matrix_rank(G) < k:
        raise RankError("Z'X is rank deficient; instruments do not identify "
                        f"{list(names)}", names)
    v = Z.T @ y
    starts = entity_starts(design.entity_ids)
    full_rank = zmat.rank == zmat.n_columns

    A1 = _one_step_weight_blocks(design, Z)
    W1, w_rank = _invert_weight(A1, on_singular, "one-step", full_rank=full_rank)
    W = W1
    beta = beta1 = _gmm_beta(G, W1, v, names)
    if not np.isfinite(beta).all():
        raise _non_finite(1)
    steps = 1
    trace: list[float] = []

    if weighting.kind in ("two_step", "n_step"):
        # U'U is singular at every step when the instruments lack full rank
        # or there are fewer entities than columns: each step's scores then
        # come from the one-step cross-moments, and its weight stays a factor
        singular = not full_rank or starts.size < Z.shape[1]
        if singular:
            _require_pinv(on_singular, "moment covariance")
            C = _cross_moments(Z, y - X @ beta1, X, starts)
            Gv = np.column_stack([G, v])
        max_iter = 1 if weighting.kind == "two_step" else weighting.max_iter
        converged = weighting.kind == "two_step"
        for _ in range(max_iter):
            if singular:
                U_prev = C @ np.append(1.0, beta1 - beta)
                F, w_rank = _weight_factor(U_prev, "moment covariance")
                beta_new = _factor_beta(F, Gv, names)
            else:
                U_prev = _scores(Z, y - X @ beta, starts)
                W, w_rank = _invert_weight(None, on_singular, "moment covariance", U_prev)
                beta_new = _gmm_beta(G, W, v, names)
            steps += 1
            delta = float(np.max(np.abs(beta_new - beta)))
            if not math.isfinite(delta):
                raise _non_finite(steps)
            trace.append(delta)
            beta = beta_new
            if weighting.kind == "n_step" and delta < weighting.tol:
                converged = True
                break
        if not converged:
            shown = trace if len(trace) <= 8 else trace[:3] + trace[-5:]
            raise EstimationError(
                f"n-step GMM did not converge in {weighting.max_iter} iterations "
                f"(tol {weighting.tol:g}); coefficient sup-norm trace "
                f"{'' if len(trace) <= 8 else '(first 3, last 5) '}"
                f"{[f'{d:.3e}' for d in shown]}"
            )
        if singular:
            W = F @ F.T

    resid = y - X @ beta
    fitted = X @ beta
    U = _scores(Z, resid, starts)
    S_final = U.T @ U
    GW = G.T @ W
    P_inv = _spd_inverse(GW @ G, "GMM covariance")
    Q = P_inv @ GW
    cov = Q @ S_final @ Q.T
    if windmeijer and weighting.kind in ("two_step", "n_step"):
        cov = _windmeijer_correct(X, Z, starts, W, W1, U_prev, U, G, P_inv, cov)

    # level-space fitted values and (for within) the derived intercept
    fitted_level = alphas = None
    if not model.transform.is_calendar:
        fitted_level, alphas = _level_fit(design, beta)
    if alphas is not None and model.intercept:
        beta, names, cov = _grand_mean_intercept(design, beta, names, alphas, cov)
    r2 = _squared_correlation(y, fitted)
    # quasi-demeaned runs also report the level-space (unweighted) fit;
    # the two coincide exactly when theta = 0
    if model.transform is TransformKind.QUASI_DEMEAN:
        r2_pair = (r2, _squared_correlation(design.y_level, fitted_level))
    else:
        r2_pair = (r2, r2)
    return _result(
        f"gmm/{model.transform.value}", design, names, beta, cov, resid, fitted, r2_pair,
        _level_fit_table(design, fitted_level, fitted), steps, trace,
        weighting_matrix=W,
        moment_covariance=S_final,
        instruments=zmat,
        instrument_spec=instruments,
        weighting=weighting,
        theta=design.theta,
        variance_components=design.components,
        design_matrix=X,
        weighting_rank=w_rank,
        entity_effects=alphas,
    )


def _windmeijer_correct(
    X: np.ndarray,
    Z: np.ndarray,
    starts: np.ndarray,
    W: np.ndarray,
    W1: np.ndarray,
    U1: np.ndarray,
    U: np.ndarray,
    G: np.ndarray,
    P_inv: np.ndarray,
    cov2: np.ndarray,
) -> np.ndarray:
    """Finite-sample correction for two-step GMM covariance.

    Propagates the estimation error of the weighting matrix through the
    second step: V_c = V2 + D V2 + V2 D' + D V1 D'. U1 holds the entity
    scores of the residuals that built W, U those of the final ones, W1
    is the one-step weight. Column j of D is -P_inv G'W dS_j a with
    a = W gbar, dS_j = -(H_j'U1 + U1'H_j) and H_j = reduceat(Z * X_j).
    """
    a = W @ U.sum(axis=0)
    Ha = np.add.reduceat((Z @ a)[:, None] * X, starts, axis=0)
    U1a = np.repeat(U1 @ a, np.diff(starts, append=Z.shape[0]))
    D = P_inv @ (G.T @ W) @ (Z.T @ (X * U1a[:, None]) + U1.T @ Ha)
    P1_inv = _spd_inverse(G.T @ W1 @ G, "one-step covariance")
    Q1 = P1_inv @ G.T @ W1
    V1 = Q1 @ (U1.T @ U1) @ Q1.T
    return cov2 + D @ cov2 + cov2 @ D.T + D @ V1 @ D.T


# ---------------------------------------------------------------------------
# fitted values in level units


def _level_fit_table(
    design: Design, fitted_level: np.ndarray | None, fitted: np.ndarray
) -> FitTable:
    """Assemble the (entity, period, actual, fitted) table.

    The transformed columns hold the design's y and the fit ``fitted`` in
    the model's transformed units. Pooled, within and quasi-demeaned fits
    pass their level fit per row; FD/OD fits are pushed back to level
    units through the inverse transform anchored on the actual series.
    """
    model, data = design.model, design.data
    level_mask = np.ones(design.n, dtype=bool)
    if model.transform.is_calendar:
        grid_fit = np.full((data.n_entities, data.n_periods), np.nan)
        grid_mask = np.zeros((data.n_entities, data.n_periods), dtype=bool)
        per_idx = design.periods - data.periods[0]
        grid_fit[design.entity_ids, per_idx] = fitted
        grid_mask[design.entity_ids, per_idx] = True
        dep = data.require(model.dependent)
        lvl, lvl_mask = reconstruct_levels(
            grid_fit, grid_mask, dep.values, dep.mask, model.transform
        )
        fitted_level = lvl[design.entity_ids, per_idx]
        level_mask = lvl_mask[design.entity_ids, per_idx]
    return FitTable(
        entities=design.data.entities,
        entity_ids=design.entity_ids,
        periods=design.periods,
        actual_transformed=np.asarray(design.y, dtype=float),
        fitted_transformed=np.asarray(fitted, dtype=float),
        actual_level=np.asarray(design.y_level, dtype=float),
        fitted_level=np.asarray(fitted_level, dtype=float),
        level_mask=level_mask,
    )
