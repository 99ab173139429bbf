"""Linear panel estimation engines.

``fit_plain``: pooled OLS, fixed effects by the within transform, or
random effects GLS with Swamy-Arora quasi-demeaning, as the model's
transform says. ``fit_gmm``: instrumented GMM with one-step, two-step,
and iterated weighting. Reported standard errors are White-style
heteroskedasticity robust throughout; GMM covariance is clustered by
entity. Every fit keeps its ``Design``, the one owner of the fit's rows,
model and dataset; the result adds only what the fit computes. Rank and
identification checks judge each regressor against its own scale, so a
regressor's units do not decide whether a fit raises.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import get_lapack_funcs

from .errors import (
    EstimationError,
    RankError,
    SingularWeightingError,
    UnderIdentifiedError,
    require_int,
)
from .instruments import (
    InstrumentMatrix,
    InstrumentSpec,
    assemble,
    certified_full_rank,
    intercept_column,
)
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
        require_int("lags", self.lags)
        if self.lags < 0:
            raise ValueError("exogenous lag count must be >= 0")


_EFFECTS = {TransformKind.WITHIN: "fixed", TransformKind.QUASI_DEMEAN: "random"}


@dataclass(frozen=True)
class ModelSpec:
    """What to regress on what, under which transform.

    ``ar_lags`` lags of the dependent variable enter as regressors;
    every exogenous term enters at lags 0..term.lags. Differenced and
    deviated equations carry no intercept. A model needs a regressor or
    an intercept, and no exogenous term may be the dependent or name the
    variable of another. ``effects`` follows the transform: "fixed" under
    within, "random" under quasi-demeaning, "none" otherwise. A value
    passed must agree, so ``dataclasses.replace(model, transform=...)``
    into another effects class needs ``effects=None``.
    """

    dependent: str
    ar_lags: int = 1
    exogenous: tuple[ExogTerm, ...] = ()
    intercept: bool = True
    effects: str | None = None  # derived from transform
    transform: TransformKind = TransformKind.NONE

    def __post_init__(self):
        require_int("ar_lags", self.ar_lags)
        if self.ar_lags < 0:
            raise ValueError("ar_lags must be >= 0")
        if not (self.ar_lags or self.exogenous or self.intercept):
            raise ValueError("the model has no regressor and no intercept")
        names = [term.name for term in self.exogenous]
        if self.dependent in names:
            raise ValueError(f"exogenous term {self.dependent!r} is the dependent variable")
        if repeated := sorted({name for name in names if names.count(name) > 1}):
            raise ValueError(f"exogenous variable(s) {repeated} named by more than one term")
        if self.transform.is_calendar and self.intercept:
            raise ValueError("differenced/deviated equations have no intercept")
        effects = _EFFECTS.get(self.transform, "none")
        if self.effects is None:
            object.__setattr__(self, "effects", effects)
        elif self.effects != effects:
            raise ValueError(f"the {self.transform.value} transform implies {effects!r} "
                             f"effects, not {self.effects!r}")

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
        require_int("max_iter", self.max_iter)
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if not 0.0 <= self.tol < math.inf:
            raise ValueError(f"tol must be finite and >= 0, got {self.tol!r}")


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
class EstimationResult:
    """Coefficients, inference, residuals, entity scores, and fit diagnostics.

    ``design`` owns the fit's rows and inputs: its ``model`` and ``data``,
    the aligned ``sample`` with entity ids and periods, ``y``/``X`` and
    their levels, and random effects' ``theta`` and ``components``. The
    result keeps what the fit adds. Standard errors and t statistics are
    read off ``covariance``. Four attributes are derived on first read,
    from ``design``, ``fitted_transformed``, the slopes
    ``coefficients[:len(design.x_names)]`` and ``entity_effects``, and then
    cached on the instance: ``fitted_level``, the level fit at the design's
    rows where ``level_mask`` holds (``_level_fit``), and
    ``r_squared_weighted``/``r_squared_unweighted``. They are not fields:
    a fit hands the constructor no copy of them, and a caller that never
    reads them never computes them. A plain fit's R-squared is that of its level fit,
    and random effects report the quasi-demeaned one as weighted; a GMM
    fit's is the squared correlation of its transformed fit, and random
    effects report the level fit's as unweighted.
    """

    method: str
    design: Design
    param_names: tuple[str, ...]
    coefficients: np.ndarray
    covariance: np.ndarray
    residuals: np.ndarray
    fitted_transformed: np.ndarray
    steps_taken: int = 1
    classical_covariance: np.ndarray | None = None
    weighting_matrix: np.ndarray | None = None
    instruments: InstrumentMatrix | None = None
    instrument_spec: InstrumentSpec | None = None
    weighting: Weighting | None = None
    entity_effects: np.ndarray | None = None
    weighting_rank: int | None = None
    scores: np.ndarray | None = None  # GMM: N x L, row i Z_i'e_i, S = U'U
    iteration_trace: tuple[float, ...] = ()

    @property
    def standard_errors(self) -> np.ndarray:
        return np.sqrt(np.maximum(np.diag(self.covariance), 0.0))

    @property
    def t_statistics(self) -> np.ndarray:
        se = self.standard_errors
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(se > 0, self.coefficients / se, np.nan)

    @cached_property
    def _levels(self) -> tuple[np.ndarray, np.ndarray]:
        beta = self.coefficients[:len(self.design.x_names)]
        return _level_fit(self.design, beta, self.fitted_transformed, self.entity_effects)

    @cached_property
    def fitted_level(self) -> np.ndarray:
        return self._levels[0]

    @cached_property
    def level_mask(self) -> np.ndarray:
        return self._levels[1]

    @cached_property
    def r_squared_weighted(self) -> float:
        design = self.design
        if self.instruments is not None:
            return _squared_correlation(design.y, self.fitted_transformed)
        if design.model.transform is not TransformKind.QUASI_DEMEAN:
            return self.r_squared_unweighted
        return _r_squared(design.y, self.fitted_transformed, center=True)

    @cached_property
    def r_squared_unweighted(self) -> float:
        design = self.design
        model = design.model
        if self.instruments is None:
            center = model.intercept or model.transform is not TransformKind.NONE
            return _r_squared(design.y_level, self.fitted_level, center)
        if model.transform is not TransformKind.QUASI_DEMEAN:
            return self.r_squared_weighted
        # the two coincide exactly when theta = 0
        return _squared_correlation(design.y_level, self.fitted_level)

    @property
    def design_matrix(self) -> np.ndarray:
        return self.design.X

    @property
    def sample_size(self) -> int:
        return self.design.n

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

    ``sample`` owns the rows: their entity ids and periods, and in
    ``matrix`` the level dependent and regressors. ``y`` and ``X`` are in
    the model's transformed units; ``y_level`` and ``X_level`` are the
    levels at the same rows, views of ``sample.matrix`` but for an
    intercept. ``X`` holds every regression column named in ``x_names``,
    ``const`` last when the equation has one. ``theta`` is the per-entity
    quasi-demeaning weight of a random effects design, and ``components``
    the variance components behind it.
    """

    model: ModelSpec
    data: PanelDataset
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

    @property
    def entity_ids(self) -> np.ndarray:
        return self.sample.entity_ids

    @property
    def periods(self) -> np.ndarray:
        return self.sample.periods


def build_design(model: ModelSpec, data: PanelDataset) -> Design:
    """Align the model's columns and apply its transform.

    ``align_columns`` keeps the rows where the dependent and every
    regressor column exist, after FD/OD for those transforms. Within and
    quasi-demeaning subtract theta_a times the entity mean over the
    aligned rows: theta_a is 1 for within and, for random effects, the
    weight of the ``swamy_arora`` components, which the design keeps.
    Pooled designs stay in levels. ``sample.matrix`` holds level values
    in every case, the dependent first and then the regressors. The
    intercept, unless within absorbs it, is appended here only:
    ``intercept_column`` to ``X`` (ones, or 1 - theta_a quasi-demeaned)
    and ones to ``X_level``.
    """
    cols = model.regressor_columns()
    kind = model.transform
    if kind is TransformKind.WITHIN and not cols:
        raise EstimationError("fixed effects need a slope regressor; the within "
                              "transform absorbs the intercept")
    sample, yX = _align(model, data, kind)
    y_level, X_level = sample.matrix[:, 0], sample.matrix[:, 1:]
    y, X, theta, components = y_level, X_level, None, None
    if kind.is_calendar:
        y, X = yX[:, 0], yX[:, 1:]
    elif kind in (TransformKind.WITHIN, TransformKind.QUASI_DEMEAN):
        if kind is TransformKind.QUASI_DEMEAN:
            components = _swamy_arora(model, sample)
            if components.sigma_e2 <= 0:
                raise EstimationError(
                    f"idiosyncratic variance must be positive, got {components.sigma_e2}"
                )
            counts = np.bincount(sample.entity_ids, minlength=data.n_entities)
            theta = components.theta(counts)
        shift = 1.0 if theta is None else theta
        y = demean_by_entity(y, sample.entity_ids, shift)
        X = demean_by_entity(X, sample.entity_ids, shift)
    names = [n for _, _, n in cols]
    if kind is TransformKind.WITHIN or kind.is_calendar:
        # a slope the transform leaves at rounding noise of its own levels
        dead = [n for n, top, level in zip(names, np.max(np.abs(X), axis=0),
                                           np.max(np.abs(X_level), axis=0))
                if top <= 1e-12 * level]
        if dead:
            raise RankError(f"slope(s) {dead} constant within every entity; "
                            f"not identifiable under the {kind.value} transform", dead)
    if model.intercept and kind is not TransformKind.WITHIN:
        X = np.column_stack([X, intercept_column(sample, kind, theta)])
        X_level = np.column_stack([X_level, np.ones(sample.n_rows)])
        names.append("const")
    return Design(
        model=model, data=data, y=y, X=X, x_names=names,
        y_level=y_level, X_level=X_level, sample=sample, theta=theta, components=components,
    )


def _align(model: ModelSpec, data: PanelDataset, kind=TransformKind.NONE):
    """The model's ``align_columns`` sample and its matrix in ``kind``'s units."""
    columns = [(model.dependent, 0)] + [(v, l) for v, l, _ in model.regressor_columns()]
    return align_columns(data, columns, kind)


def swamy_arora(model: ModelSpec, data: PanelDataset) -> VarianceComponents:
    """Swamy-Arora variance components from within and between steps.

    Both run on the model's own aligned rows, whatever its transform.
    sigma_e^2 is the within mean squared residual with N+k degrees of
    freedom removed; sigma_u^2 comes from the between regression with
    the harmonic-mean correction for unbalanced entity lengths and is
    floored at zero.
    """
    return _swamy_arora(model, _align(model, data)[0])


def _swamy_arora(model: ModelSpec, sample: AlignedSample) -> VarianceComponents:
    """``swamy_arora`` on the model's level sample, already aligned."""
    y_level, X_level = sample.matrix[:, 0], sample.matrix[:, 1:]
    starts = entity_starts(sample.entity_ids)
    yw = demean_by_entity(y_level, sample.entity_ids)
    Xw = demean_by_entity(X_level, sample.entity_ids)
    n, k, n_ent = sample.n_rows, Xw.shape[1], starts.size
    df_within = n - n_ent - k
    if df_within <= 0:
        raise EstimationError(
            f"non-positive within degrees of freedom ({df_within}); "
            "panel too short for variance components"
        )
    beta_w = _ols(yw, Xw, [name for _, _, name in model.regressor_columns()])
    resid_w = yw - Xw @ beta_w
    sigma_e2 = float(resid_w @ resid_w) / df_within

    ybar = entity_means(y_level, starts)
    xbar = entity_means(X_level, starts)
    counts = np.diff(starts, append=n)
    Xb = np.column_stack([xbar, np.ones(n_ent)])
    df_between = n_ent - (k + 1)
    if df_between <= 0:
        raise EstimationError(
            f"too few entities ({n_ent}) for the between regression with {k} slopes"
        )
    beta_b = _lstsq(Xb, ybar)
    resid_b = ybar - Xb @ beta_b
    mse_between = float(resid_b @ resid_b) / df_between
    t_harmonic = n_ent / float(np.sum(1.0 / counts))
    sigma_u2 = mse_between - sigma_e2 / t_harmonic
    floored = sigma_u2 <= 0
    return VarianceComponents(
        sigma_u2=max(sigma_u2, 0.0), sigma_e2=sigma_e2, floored=bool(floored)
    )


def _column_scale(A: np.ndarray) -> np.ndarray:
    """Each column's largest magnitude (1 for a zero column): dividing by it
    leaves no column's units to count, and cannot overflow as a 2-norm can."""
    top = np.max(np.abs(A), axis=0)
    return np.where(top > 0, top, 1.0)


def _check_rank(X: np.ndarray, names: Sequence[str]) -> None:
    """Raise RankError naming the dependent columns of X.

    ``certified_full_rank`` on the k x k Gram of X's scaled columns passes
    only where the pivoted QR below finds full rank, so a certified X
    needs no factorization. Otherwise the pivoted QR of the scaled columns
    decides, and names the columns after the rank.
    """
    if X.shape[1] == 0:
        return
    scale = _column_scale(X)
    if certified_full_rank(X.T @ X, scale, X.shape[0]):
        return
    r, piv = scipy.linalg.qr(X / scale, mode="r", pivoting=True)
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
# Triangular inverse, called directly for the same reason by each
# pseudo-inverse GMM step. With U U' = c'c (c upper Cholesky, N x N), c has
# the singular values of U, and a step whose ||c||_F ||c^-1||_F < 1e3 keeps
# every one: that product bounds cond2(c) from above (Golub & Van Loan,
# Matrix Computations, 2.3), three decades below the 1e6 at which ``_kept``
# starts to cut, so rounding cannot flip the decision. The bound is 1e3, not
# the 1e5 a QR of U would allow, because forming U U' squares the condition
# number in the error (Bjorck, Linear Algebra Appl. 88/89, 1987): the step's
# M'M is within about 3 eps ||c||_F^2 ||c^-1||_F^2 of its largest entry, so
# under the certificate within 7e-10.
_TRTRI = get_lapack_funcs("trtri", (np.zeros(1),))


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
    return _lstsq(X, y)


def _lstsq(X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """lstsq, on scaled columns when X's ``_column_scale`` spans more than 1e6.

    lstsq loses digits in proportion to that span and drops singular values
    below eps max(n, k) of the largest, so a regressor's units would decide
    the fit; below the span the plain call is kept, bit for bit.
    """
    scale = _column_scale(X)
    if scale.max(initial=1.0) <= 1e6 * scale.min(initial=1.0):
        return np.linalg.lstsq(X, y, rcond=None)[0]
    return np.linalg.lstsq(X / scale, y, rcond=None)[0] / scale


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


def _entity_effects(design: Design, beta: np.ndarray) -> np.ndarray:
    """A within fit's alpha_a = ybar_a - xbar_a'beta over each entity's level
    rows, one per entity index and NaN outside the sample."""
    starts = entity_starts(design.entity_ids)
    alphas = np.full(design.data.n_entities, np.nan)
    alphas[design.entity_ids[starts]] = (
        entity_means(design.y_level, starts) - entity_means(design.X_level, starts) @ beta
    )
    return alphas


def _level_fit(design: Design, beta: np.ndarray, fitted: np.ndarray,
               alphas: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """Level fitted values of any fit and the rows where they are defined.

    FD/OD fits push the transformed ``fitted`` back to level units
    through the inverse transform anchored on the actual series. Within
    fits are alpha_a + x'beta, with ``alphas`` from ``_entity_effects``;
    other fits apply beta, intercept included, to the level regressors.
    """
    model, data = design.model, design.data
    if model.transform.is_calendar:
        rows = (design.entity_ids, design.periods - data.periods[0])
        grid_fit = np.full((data.n_entities, data.n_periods), np.nan)
        grid_mask = np.zeros(grid_fit.shape, dtype=bool)
        grid_fit[rows], grid_mask[rows] = fitted, True
        dep = data.require(model.dependent)
        lvl, lvl_mask = reconstruct_levels(grid_fit, grid_mask, dep.values, dep.mask,
                                           model.transform)
        return lvl[rows], lvl_mask[rows]
    level_mask = np.ones(design.n, dtype=bool)
    if model.transform is not TransformKind.WITHIN:
        return design.X_level @ beta, level_mask
    return alphas[design.entity_ids] + design.X_level @ beta, level_mask


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


_PLAIN_METHODS = {TransformKind.NONE: "pooled", TransformKind.WITHIN: "fe/within",
                  TransformKind.QUASI_DEMEAN: "re"}


def fit_plain(model: ModelSpec, data: PanelDataset) -> EstimationResult:
    """OLS on the model's transformed equation, with White robust standard errors.

    The transform picks pooled OLS (``none``), fixed effects (``within``)
    or random effects GLS (``quasi_demean``, theta_a from the entity's own
    T_a, so sigma_u = 0 is pooled OLS exactly); FD/OD models raise
    ValueError, as they need ``fit_gmm``. A fixed effects fit derives
    alpha_a = ybar_a - xbar_a'beta, and ``const`` is their grand mean with
    a delta-method standard error. R-squared is the level fit's; random
    effects report the quasi-demeaned one as weighted.
    """
    kind = model.transform
    if kind.is_calendar:
        raise ValueError(f"{kind.value!r} models need instruments; fit them with fit_gmm")
    design = build_design(model, data)
    names, X, y = list(design.x_names), design.X, design.y
    absorbed = 0  # entity means the transform removes
    if kind is TransformKind.WITHIN:
        absorbed = np.unique(design.entity_ids).size
        if absorbed < 2:
            raise EstimationError("fixed effects need at least 2 entities in sample")
    beta = _ols(y, X, names)
    fitted = X @ beta
    resid = y - fitted
    bread = _spd_inverse(X.T @ X, "White covariance")
    cov = bread @ ((X * resid[:, None] ** 2).T @ X) @ bread
    df = max(design.n - absorbed - X.shape[1], 1)
    classical = float(resid @ resid) / df * bread
    alphas = _entity_effects(design, beta) if kind is TransformKind.WITHIN else None
    beta_full = beta
    if alphas is not None and model.intercept:
        beta_full, names, cov, classical = _grand_mean_intercept(
            design, beta, names, alphas, cov, classical
        )
    return EstimationResult(
        method=_PLAIN_METHODS[kind], design=design, param_names=tuple(names),
        coefficients=beta_full, covariance=cov, residuals=resid, fitted_transformed=fitted,
        classical_covariance=classical, entity_effects=alphas,
    )


# ---------------------------------------------------------------------------
# GMM


def _one_step_weight_blocks(
    design: Design, zmat: InstrumentMatrix
) -> np.ndarray:
    """Sum of Z_i' H Z_i with H identity except tridiagonal for FD.

    Z'Z is the instruments' own Gram. FD: H is 2 on the diagonal and -1
    between rows one period apart, so the sum is 2 Z'Z - B - B' with B
    over those adjacent rows.
    """
    A, Z = zmat.gram, zmat.matrix
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
    keeps eigenvalues above 1e-12 of the largest (``_kept``): from eigh of
    A, or, given U, from the SVD of U' as F F' (``_weight_factor``). A
    non-finite A or eigenvalue means the moment products overflowed, and
    raises EstimationError. The one-step weight, the J and AR tests and
    every ``fit_gmm`` step weight come here, except a step on a singular
    U'U that ``_certified_moments`` certifies from U U'.

    The Cholesky branch runs the LAPACK calls of cho_factor/cho_solve, so
    its inverse is theirs bit for bit. That branch must not move: the
    random-effects n-step intercept on the brand panel shifts by up to
    7.4e-10 relative when one pp cell moves by one ulp, above the 1e-10
    the golden records are checked to.
    """
    if full_rank and (U is None or U.shape[0] >= U.shape[1]):
        A = U.T @ U if A is None else A
        if not np.isfinite(A).all():
            raise _overflow(f"{context} weighting matrix")
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


def _check_on_singular(on_singular: str) -> None:
    if on_singular not in ("error", "pinv"):
        raise ValueError(f"on_singular must be 'error' or 'pinv', got {on_singular!r}")


def _require_pinv(on_singular: str, context: str) -> None:
    """Raise SingularWeightingError unless a singular weight may be pseudo-inverted."""
    if on_singular == "error":
        raise SingularWeightingError(
            f"{context} weighting matrix is singular; collapse the dynamic "
            "instrument blocks or bound their lag depth (or pass on_singular='pinv')"
        )


def _overflow(what: str) -> EstimationError:
    return EstimationError(
        f"{what} is not finite: the moment products overflowed; rescale the data"
    )


def _kept(w: np.ndarray, context: str) -> np.ndarray:
    """Mask of the eigenvalues a pseudo-inverse keeps: above 1e-12 of the largest."""
    if not np.isfinite(w).all():
        raise _overflow(f"{context} weighting matrix")
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


def _gram_blocks(C: np.ndarray, Gv: np.ndarray, n: int):
    """The (k+1)^2 x N^2 Gram blocks C_a C_b' of C's k+1 blocks C_a (N x L), from one
    ((k+1) N)^2 product, and the (k+1) x N(k+1) products C_a Gv; None when N > L,
    where U U' is singular and no step can be certified."""
    m, stacked = C.shape[0], C.reshape(-1, C.shape[1] // n)
    if n > stacked.shape[1]:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        gram = (stacked @ stacked.T).reshape(m, n, m, n).transpose(0, 2, 1, 3)
        return gram.reshape(m * m, n * n), (stacked @ Gv).reshape(m, -1)


def _certified_moments(blocks, a: np.ndarray) -> np.ndarray | None:
    """M with M'M = Gv'(U'U)^+ Gv when every singular value of U = a @ C is certified kept.

    K = U U' = (a x a) @ blocks[0] and U Gv = a @ blocks[1], from
    ``_gram_blocks``, round on the scale of |a| |C|; an overflow leaves them
    non-finite, without a warning. The certificate, as the comment at
    ``_TRTRI`` sets out: K, U Gv and the Frobenius norms of K's upper
    Cholesky factor c and of its trtri inverse are finite, the norms below
    1e150 (so U's singular values s have normal s^2) and their product
    below 1e3. Then (U'U)^+ = U'K^-2 U and M = c^-1 c^-T U Gv; otherwise
    None, and the step inverts U'U as ``_invert_weight`` does.
    """
    n = math.isqrt(blocks[0].shape[1])
    with np.errstate(over="ignore", invalid="ignore"):
        K, UGv = (np.outer(a, a).ravel() @ blocks[0]).reshape(n, n), a @ blocks[1]
    if not (np.isfinite(K).all() and np.isfinite(UGv).all()):
        return None
    c, info = _POTRF(K, lower=False, clean=True)
    if info != 0:
        return None
    c_inv = _TRTRI(c)[0]  # potrf left a positive diagonal, so trtri cannot fail
    norm, norm_inv = np.linalg.norm(c), np.linalg.norm(c_inv)
    if not (norm < 1e150 and norm_inv < 1e150 and norm * norm_inv < 1e3):
        return None
    return c_inv @ (c_inv.T @ UGv.reshape(n, -1))


def _cross_moments(Z: np.ndarray, e1: np.ndarray, X: np.ndarray,
                   starts: np.ndarray) -> np.ndarray:
    """Entity cross-moments C, (1+k) x N x L: C[a, i] = sum_t w_ta Z_t over entity i's rows.

    Here w = [e1, X]. Residuals at any beta are e1 + X (beta1 - beta) when
    e1 = y - X beta1, so their N x L scores are the one product
    [1, beta1 - beta] @ C.reshape(1+k, N L), reshaped.
    """
    return np.stack([_scores(Z, col, starts) for col in np.column_stack([e1, X]).T])


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


def _non_finite(step: int) -> EstimationError:
    return EstimationError(f"GMM step {step} gave a non-finite coefficient")


def fit_gmm(
    model: ModelSpec,
    data: PanelDataset,
    instruments: InstrumentSpec,
    weighting: Weighting = TWO_STEP,
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
    errors, and a corrected variance below zero raises EstimationError.

    ``instruments`` is assembled on the design's sample. A weight is
    singular when the instruments lack full column rank or, for the moment
    covariance S = U'U (U the N x L entity score matrix), when N < L; it
    raises SingularWeightingError with ``on_singular='error'``, or with
    ``on_singular='pinv'`` is replaced by its pseudo-inverse, tracking the
    effective rank. Any other ``on_singular`` raises ValueError.

    When S is singular by those tests, each step's scores are the one
    product U = [1, beta1 - beta] @ C, with C the entity cross-moments of
    the one-step residuals and of X laid out (1+k) x N L. When N <= L, the
    N x N ``_gram_blocks`` give each step's U U' and U Gv at a cost free of
    L. A step that ``_certified_moments`` certifies from them keeps every
    singular value of U and forms neither U nor an L x L weight: with P =
    M'M = Gv'S^+Gv, Gv = [Z'X Z'y], beta solves P[:-1, :-1] beta =
    P[:-1, -1], and W = S^+ comes after the loop from ``_invert_weight`` of
    the last step's scores. Every other step is the textbook one: U, then
    W from ``_invert_weight`` and the normal equations, so fits on a
    nonsingular S stay bit for bit what the formulas give.
    Non-finite Z'X, Z'y or step coefficients raise EstimationError. The
    final residuals' scores U are kept as ``scores``.
    """
    _check_on_singular(on_singular)
    design = build_design(model, data)
    y, X, names = design.y, design.X, design.x_names
    k = X.shape[1]
    _check_rank(X, names)

    zmat = assemble(instruments, data, design.sample, transform=model.transform,
                    theta=design.theta)
    if zmat.n_columns < k:
        raise UnderIdentifiedError(f"{zmat.n_columns} instrument column(s) for {k} regressors")
    Z = zmat.matrix
    G = Z.T @ X
    v = Z.T @ y
    if not (np.isfinite(G).all() and np.isfinite(v).all()):
        raise _overflow("Z'X or Z'y")
    scale = _column_scale(G)
    if (not certified_full_rank(G.T @ G, scale, G.shape[0])
            and np.linalg.matrix_rank(G / scale) < k):
        raise RankError("Z'X is rank deficient; instruments do not identify "
                        f"{list(names)}", names)
    starts = entity_starts(design.entity_ids)
    full_rank = zmat.full_rank

    A1 = _one_step_weight_blocks(design, zmat)
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
        # come from the one-step cross-moments, and a certified step builds
        # no L x L weight
        singular = not full_rank or starts.size < Z.shape[1]
        if singular:
            _require_pinv(on_singular, "moment covariance")
            C = _cross_moments(Z, y - X @ beta1, X, starts).reshape(k + 1, -1)
            a = np.ones(k + 1)  # [1, beta1 - beta], refilled each step
            blocks = _gram_blocks(C, np.column_stack([G, v]), starts.size)
        max_iter = 1 if weighting.kind == "two_step" else weighting.max_iter
        converged = weighting.kind == "two_step"
        for _ in range(max_iter):
            if singular:
                np.subtract(beta1, beta, out=a[1:])
                M = None if blocks is None else _certified_moments(blocks, a)
                if M is None:
                    U_prev = (a @ C).reshape(starts.size, -1)
            else:
                U_prev = _scores(Z, y - X @ beta, starts)
                M = None
            if M is None:
                W, w_rank = _invert_weight(None, on_singular, "moment covariance", U_prev,
                                           full_rank)
                beta_new = _gmm_beta(G, W, v, names)
            else:
                P = M.T @ M
                beta_new = _solve_normal(P[:-1, :-1], P[:-1, -1], names)
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
        if M is not None:  # the last step was certified and built neither U nor a weight
            U_prev = (a @ C).reshape(starts.size, -1)
            W, w_rank = _invert_weight(None, on_singular, "moment covariance", U_prev, full_rank)

    fitted = X @ beta
    resid = y - fitted
    U = _scores(Z, resid, starts)
    S_final = U.T @ U
    GW = G.T @ W
    P_inv = _spd_inverse(GW @ G, "GMM covariance")
    Q = P_inv @ GW
    cov = Q @ S_final @ Q.T
    if windmeijer and weighting.kind in ("two_step", "n_step"):
        cov = _windmeijer_correct(X, Z, starts, W, W1, U_prev, U, G, P_inv, cov)
        negative = [n for n, var in zip(names, np.diag(cov)) if var < 0]
        if negative:
            raise EstimationError(f"Windmeijer-corrected variance is negative for {negative}")

    # the within fit's entity effects and their grand-mean intercept
    alphas = _entity_effects(design, beta) if model.transform is TransformKind.WITHIN else None
    if alphas is not None and model.intercept:
        beta, names, cov = _grand_mean_intercept(design, beta, names, alphas, cov)
    return EstimationResult(
        method=f"gmm/{model.transform.value}", design=design, param_names=tuple(names),
        coefficients=beta, covariance=cov, residuals=resid, fitted_transformed=fitted,
        steps_taken=steps, iteration_trace=tuple(trace),
        weighting_matrix=W,
        instruments=zmat,
        instrument_spec=instruments,
        weighting=weighting,
        weighting_rank=w_rank,
        scores=U,
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
