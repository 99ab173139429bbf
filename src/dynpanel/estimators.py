"""Linear panel estimation engines.

Pooled OLS, fixed effects (LSDV or within), random effects GLS with
Swamy-Arora quasi-demeaning, and instrumented GMM with one-step,
two-step, and iterated weighting. Reported standard errors are
White-style heteroskedasticity robust throughout; GMM covariance is
clustered by entity.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
import scipy.linalg

from .errors import (
    EstimationError,
    RankError,
    SingularWeightingError,
)
from .instruments import InstrumentMatrix, InstrumentSpec, assemble
from .panel import AlignedSample, PanelDataset, align, lagged_grid
from .transforms import (
    TransformKind,
    apply_grid,
    expand_dummies,
    reconstruct_levels,
)

_CALENDAR_TRANSFORMS = (
    TransformKind.FIRST_DIFFERENCE,
    TransformKind.ORTHOGONAL_DEVIATION,
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
    within or dummy transform, random effects with quasi-demeaning.
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
        if self.transform in _CALENDAR_TRANSFORMS:
            if self.intercept:
                raise ValueError("differenced/deviated equations have no intercept")
            if self.effects != "none":
                raise ValueError("FD/OD transforms already remove entity effects")
        if self.effects == "fixed" and self.transform not in (
            TransformKind.WITHIN,
            TransformKind.DUMMIES,
        ):
            raise ValueError("fixed effects require the within or dummies transform")
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

    def required_lags(self) -> dict[str, int]:
        req = {self.dependent: self.ar_lags}
        for term in self.exogenous:
            req[term.name] = max(req.get(term.name, 0), term.lags)
        return req


@dataclass(frozen=True)
class Weighting:
    """GMM weighting scheme: one_step, two_step, or iterated n_step."""

    kind: str = "two_step"
    max_iter: int = 100
    tol: float = 1e-8

    def __post_init__(self):
        if self.kind not in ("one_step", "two_step", "n_step"):
            raise ValueError(f"unknown weighting {self.kind!r}")

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
        import csv

        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(
                ["entity", "period", "actual_transformed", "fitted_transformed",
                 "actual_level", "fitted_level"]
            )
            for i in range(self.entity_ids.size):
                lvl_a = repr(float(self.actual_level[i])) if self.level_mask[i] else ""
                lvl_f = repr(float(self.fitted_level[i])) if self.level_mask[i] else ""
                writer.writerow([
                    self.entities[self.entity_ids[i]],
                    int(self.periods[i]),
                    repr(float(self.actual_transformed[i])),
                    repr(float(self.fitted_transformed[i])),
                    lvl_a,
                    lvl_f,
                ])


@dataclass
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
    fitted_levels: FitTable | None
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

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "coefficients": dict(zip(self.param_names, map(float, self.coefficients))),
            "se": dict(zip(self.param_names, map(float, self.standard_errors))),
            "t": dict(zip(self.param_names, map(float, self.t_statistics))),
            "r2": self.r_squared_unweighted,
            "r2_weighted": self.r_squared_weighted,
            "n": self.sample_size,
            "cross_sections": self.cross_sections,
            "periods": self.periods_used,
            "steps": self.steps_taken,
        }


# ---------------------------------------------------------------------------
# design construction


@dataclass
class Design:
    """Aligned regression arrays for one model on one dataset."""

    model: ModelSpec
    data: PanelDataset
    entity_ids: np.ndarray
    periods: np.ndarray
    y: np.ndarray
    X: np.ndarray            # slope columns only
    x_names: list[str]
    y_level: np.ndarray      # level dependent at the same rows
    X_level: np.ndarray      # level slope columns at the same rows
    sample: AlignedSample

    @property
    def n(self) -> int:
        return self.y.size

    def entity_counts(self) -> np.ndarray:
        counts = np.zeros(len(self.data.entities), dtype=int)
        ids, c = np.unique(self.entity_ids, return_counts=True)
        counts[ids] = c
        return counts


def build_design(model: ModelSpec, data: PanelDataset) -> Design:
    """Align the model's columns, applying calendar transforms if any.

    For FD/OD the transform is applied per entity to each lagged level
    grid first and rows are kept where every transformed cell exists;
    the level values at those rows are kept alongside for
    reconstruction. Demeaning transforms are sample statistics and are
    applied by the fit functions, not here.
    """
    cols = model.regressor_columns()
    variables = [model.dependent] + [v for v, _, _ in cols]
    sample = align(data, list(dict.fromkeys(variables)), model.required_lags())

    if model.transform in _CALENDAR_TRANSFORMS:
        grids = []
        for v, l in [(model.dependent, 0)] + [(v, l) for v, l, _ in cols]:
            g = lagged_grid(data, v, l)
            grids.append(apply_grid(model.transform, g.values, g.mask))
        keep = np.ones((data.n_entities, data.n_periods), dtype=bool)
        for _, m in grids:
            keep &= m
        ent_idx, per_idx = np.nonzero(keep)
        if ent_idx.size == 0:
            raise EstimationError(
                f"no estimable observations after {model.transform.value} transform"
            )
        matrix = np.column_stack([g[0][ent_idx, per_idx] for g in grids])
        periods = np.asarray(data.periods)[per_idx]
        y = matrix[:, 0]
        X = matrix[:, 1:]
        # level columns at the same cells (present by construction of align?
        # not necessarily: transformed cells can exist where alignment rows
        # were dropped -- read levels directly off the grids)
        lev = []
        for v, l in [(model.dependent, 0)] + [(v, l) for v, l, _ in cols]:
            g = lagged_grid(data, v, l)
            lev.append(g.values[ent_idx, per_idx])
        y_level = lev[0]
        X_level = np.column_stack(lev[1:]) if len(lev) > 1 else np.empty((y.size, 0))
        return Design(
            model=model,
            data=data,
            entity_ids=ent_idx.astype(np.int64),
            periods=periods.astype(np.int64),
            y=y,
            X=X,
            x_names=[n for _, _, n in cols],
            y_level=y_level,
            X_level=X_level,
            sample=AlignedSample(
                entities=data.entities,
                entity_ids=ent_idx.astype(np.int64),
                periods=periods.astype(np.int64),
                columns=tuple([(model.dependent, 0)] + [(v, l) for v, l, _ in cols]),
                matrix=matrix,
            ),
        )

    y = sample.column(model.dependent, 0)
    X = (
        np.column_stack([sample.column(v, l) for v, l, _ in cols])
        if cols
        else np.empty((y.size, 0))
    )
    return Design(
        model=model,
        data=data,
        entity_ids=sample.entity_ids,
        periods=sample.periods,
        y=y.copy(),
        X=X,
        x_names=[n for _, _, n in cols],
        y_level=y.copy(),
        X_level=X.copy(),
        sample=sample,
    )


def _check_rank(X: np.ndarray, names: Sequence[str], what: str = "regressor") -> None:
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
            f"{what} matrix is rank deficient; collinear column(s): {bad}", bad
        )


def _spd_inverse(A: np.ndarray, context: str) -> np.ndarray:
    try:
        c, low = scipy.linalg.cho_factor(A)
        return scipy.linalg.cho_solve((c, low), np.eye(A.shape[0]))
    except np.linalg.LinAlgError as exc:
        raise EstimationError(f"{context}: matrix not positive definite") from exc


def _ols(y: np.ndarray, X: np.ndarray, names: Sequence[str]) -> np.ndarray:
    _check_rank(X, names)
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    return beta


def _white_covariance(X: np.ndarray, resid: np.ndarray) -> np.ndarray:
    bread = _spd_inverse(X.T @ X, "White covariance")
    meat = (X * resid[:, None] ** 2).T @ X
    return bread @ meat @ bread


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


def _entity_starts(entity_ids: np.ndarray) -> np.ndarray:
    """Row offset where each entity's block of rows begins.

    Design rows come from ``np.nonzero`` on the entity x period grid, so
    they are grouped by entity, in period order; the block sums rely on it.
    """
    starts = np.concatenate(([0], np.flatnonzero(np.diff(entity_ids)) + 1))
    if np.unique(entity_ids[starts]).size != starts.size:
        raise ValueError("design rows are not grouped by entity")
    return starts


def _entity_means(arr: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per-entity means of the rows of ``arr``, one row per entity."""
    counts = np.diff(starts, append=arr.shape[0])
    sums = np.add.reduceat(arr, starts, axis=0)
    return sums / counts.reshape((-1,) + (1,) * (arr.ndim - 1))


def _demean_by_entity(
    arr: np.ndarray, entity_ids: np.ndarray, theta: np.ndarray | float = 1.0
) -> np.ndarray:
    """Subtract theta_a times the per-entity mean over sample rows."""
    arr = np.asarray(arr, dtype=float)
    starts = _entity_starts(entity_ids)
    thetas = np.asarray(theta, dtype=float)
    if thetas.ndim:
        thetas = thetas[entity_ids[starts]]
    shift = _entity_means(arr, starts) * thetas.reshape((-1,) + (1,) * (arr.ndim - 1))
    return arr - np.repeat(shift, np.diff(starts, append=arr.shape[0]), axis=0)


def _result_shell(
    method: str,
    design: Design,
    names: Sequence[str],
    beta: np.ndarray,
    cov: np.ndarray,
    resid: np.ndarray,
    fitted: np.ndarray,
    **extra,
) -> EstimationResult:
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
        fitted_levels=None,
        r_squared_weighted=np.nan,
        r_squared_unweighted=np.nan,
        steps_taken=1,
        sample_size=design.n,
        cross_sections=int(np.unique(design.entity_ids).size),
        periods_used=int(np.unique(design.periods).size),
        entity_ids=design.entity_ids,
        periods=design.periods,
        dataset=design.data,
        transform=design.model.transform,
        design_matrix=extra.pop("design_matrix", design.X),
        **extra,
    )


# ---------------------------------------------------------------------------
# plain estimators


def fit_pooled(model: ModelSpec, data: PanelDataset) -> EstimationResult:
    """Pooled OLS with White robust standard errors."""
    if model.effects != "none" or model.transform is not TransformKind.NONE:
        model = replace(model, effects="none", transform=TransformKind.NONE)
    design = build_design(model, data)
    names = list(design.x_names)
    X = design.X
    if model.intercept:
        X = np.column_stack([X, np.ones(design.n)]) if X.size else np.ones((design.n, 1))
        names = names + ["const"]
    beta = _ols(design.y, X, names)
    fitted = X @ beta
    resid = design.y - fitted
    cov = _white_covariance(X, resid)
    k = X.shape[1]
    classical = float(resid @ resid) / max(design.n - k, 1) * _spd_inverse(
        X.T @ X, "classical covariance"
    )
    r2 = _r_squared(design.y, fitted, center=model.intercept)
    result = _result_shell(
        "pooled", design, names, beta, cov, resid, fitted,
        classical_covariance=classical, design_matrix=X,
    )
    result.r_squared_weighted = r2
    result.r_squared_unweighted = r2
    result.fitted_levels = _level_fit_table(design, fitted)
    return result


def fit_fixed_effects(
    model: ModelSpec, data: PanelDataset, method: str = "lsdv"
) -> EstimationResult:
    """Fixed effects by LSDV or the within transform (identical slopes).

    The reported intercept is the grand mean of the per-entity
    intercepts; slope inference comes from the within representation in
    both methods, so the two paths agree coefficient for coefficient.
    """
    if method not in ("lsdv", "within"):
        raise ValueError(f"unknown FE method {method!r}")
    base = replace(
        model,
        effects="fixed",
        transform=TransformKind.DUMMIES if method == "lsdv" else TransformKind.WITHIN,
        intercept=model.intercept,
    )
    design = build_design(replace(base, transform=TransformKind.NONE, effects="none",
                                  intercept=False), data)
    design.model = base
    if np.unique(design.entity_ids).size < 2:
        raise EstimationError("fixed effects need at least 2 entities in sample")

    names = list(design.x_names)
    starts = _entity_starts(design.entity_ids)
    ent_ids = design.entity_ids[starts]
    xbar = _entity_means(design.X, starts)
    Xw = _demean_by_entity(design.X, design.entity_ids)
    yw = _demean_by_entity(design.y, design.entity_ids)
    dead = [n for j, n in enumerate(names) if np.max(np.abs(Xw[:, j])) < 1e-12]
    if dead:
        raise EstimationError(
            f"slope(s) {dead} constant within every entity; not identifiable under fixed effects"
        )
    k = design.X.shape[1]
    alphas = np.full(len(design.data.entities), np.nan)
    if method == "lsdv":
        dummies, dummy_ents = expand_dummies(
            design.entity_ids, len(design.data.entities)
        )
        X_full = np.column_stack([design.X, dummies])
        full_names = names + [f"effect[{design.data.entities[e]}]" for e in dummy_ents]
        beta_full_lsdv = _ols(design.y, X_full, full_names)
        beta = beta_full_lsdv[:k]
        alphas[dummy_ents] = beta_full_lsdv[k:]
        resid = design.y - X_full @ beta_full_lsdv
    else:
        beta = _ols(yw, Xw, names)
        resid = yw - Xw @ beta
        alphas[ent_ids] = _entity_means(design.y, starts) - xbar @ beta

    # Slope inference on the within (partialled) representation; by the
    # Frisch-Waugh identity this is the LSDV slope block as well, since
    # both paths share residuals and the demeaned regressors.
    cov_slopes = _white_covariance(Xw, resid)
    n, n_ent = design.n, ent_ids.size
    sigma2_within = float(resid @ resid) / max(n - n_ent - k, 1)
    classical_slopes = sigma2_within * _spd_inverse(Xw.T @ Xw, "within covariance")

    if model.intercept:
        # grand-mean intercept: mean over entities of alpha_a; delta-method SE
        # through the slope covariance (alpha_a = ybar_a - xbar_a'beta)
        w = xbar.mean(axis=0)
        const = float(np.nanmean(alphas[ent_ids]))
        const_var = float(w @ cov_slopes @ w)
        names_full = names + ["const"]
        beta_full = np.append(beta, const)
        cov_full = np.zeros((k + 1, k + 1))
        cov_full[:k, :k] = cov_slopes
        cov_full[k, k] = const_var
        cov_full[:k, k] = cov_full[k, :k] = -cov_slopes @ w
        classical_full = np.zeros((k + 1, k + 1))
        classical_full[:k, :k] = classical_slopes
        classical_full[k, k] = float(w @ classical_slopes @ w)
    else:
        names_full, beta_full, cov_full, classical_full = (
            names, beta, cov_slopes, classical_slopes
        )

    fitted_level = alphas[design.entity_ids] + design.X @ beta
    r2 = _r_squared(design.y, fitted_level, center=True)
    result = _result_shell(
        f"fe/{method}", design, names_full, beta_full, cov_full,
        resid, Xw @ beta,
        classical_covariance=classical_full,
        entity_effects=alphas,
        design_matrix=Xw,
    )
    result.r_squared_weighted = r2
    result.r_squared_unweighted = r2
    result.fitted_levels = _level_fit_table(design, fitted_level)
    return result


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
    if components is None:
        from .diagnostics import swamy_arora

        components = swamy_arora(model, data)
    if components.sigma_e2 <= 0:
        raise EstimationError(
            f"idiosyncratic variance must be positive, got {components.sigma_e2}"
        )
    base = replace(model, effects="none", transform=TransformKind.NONE)
    design = build_design(replace(base, intercept=False), data)
    design.model = replace(model, effects="random", transform=TransformKind.QUASI_DEMEAN)

    theta_all = components.theta(design.entity_counts())
    Xq = _demean_by_entity(design.X, design.entity_ids, theta_all)
    yq = _demean_by_entity(design.y, design.entity_ids, theta_all)
    names = list(design.x_names)
    if model.intercept:
        const_col = 1.0 - theta_all[design.entity_ids]
        Xq = np.column_stack([Xq, const_col])
        names = names + ["const"]
    beta = _ols(yq, Xq, names)
    fitted_q = Xq @ beta
    resid = yq - fitted_q
    cov = _white_covariance(Xq, resid)
    k = Xq.shape[1]
    classical = float(resid @ resid) / max(design.n - k, 1) * _spd_inverse(
        Xq.T @ Xq, "classical covariance"
    )

    X_level = design.X_level
    if model.intercept:
        X_level = np.column_stack([X_level, np.ones(design.n)])
    fitted_level = X_level @ beta
    result = _result_shell(
        "re", design, names, beta, cov, resid, fitted_q,
        classical_covariance=classical,
        theta=theta_all,
        variance_components=components,
        design_matrix=Xq,
    )
    result.r_squared_weighted = _r_squared(yq, fitted_q, center=True)
    result.r_squared_unweighted = _r_squared(design.y, fitted_level, center=True)
    result.fitted_levels = _level_fit_table(design, fitted_level)
    return result


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
    A: np.ndarray | None, on_singular: str, context: str, U: np.ndarray | None = None
) -> tuple[np.ndarray, int]:
    """Inverse of a weighting matrix, or its pseudo-inverse, and its rank.

    The pseudo-inverse keeps eigenvalues above 1e-12 of the largest.
    Given the entity scores U of A = U'U (A may then be None), they are
    the s^2 of the thin SVD U' = V diag(s) P', and A^+ = V diag(1/s^2) V';
    with fewer rows than columns in U, A is singular and never formed.
    """
    if U is None or U.shape[0] >= U.shape[1]:
        A = U.T @ U if A is None else A
        try:
            c, low = scipy.linalg.cho_factor(A)
            return scipy.linalg.cho_solve((c, low), np.eye(A.shape[0])), A.shape[0]
        except np.linalg.LinAlgError:
            pass
    if on_singular == "error":
        raise SingularWeightingError(
            f"{context} weighting matrix is singular; collapse the dynamic "
            "instrument blocks or bound their lag depth (or pass on_singular='pinv')"
        )
    if U is None:
        w, V = np.linalg.eigh(A)
    else:
        V, s, _ = np.linalg.svd(U.T, full_matrices=False)
        w = s * s
    keep = w > 1e-12 * max(w.max(), 0.0)
    rank = int(keep.sum())
    if rank == 0:
        raise SingularWeightingError(f"{context} weighting matrix is zero")
    return (V[:, keep] / w[keep]) @ V[:, keep].T, rank


def _gmm_beta(G: np.ndarray, W: np.ndarray, v: np.ndarray, names) -> np.ndarray:
    GW = G.T @ W
    P = GW @ G
    try:
        c, low = scipy.linalg.cho_factor(P)
        return scipy.linalg.cho_solve((c, low), GW @ v)
    except np.linalg.LinAlgError as exc:
        raise RankError(
            f"X'Z W Z'X is singular; instruments may not identify {list(names)}",
            names,
        ) from exc


def fit_gmm(
    model: ModelSpec,
    data: PanelDataset,
    instruments: InstrumentSpec | InstrumentMatrix,
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

    ``on_singular='pinv'`` substitutes a pseudo-inverse when a weighting
    matrix is singular, tracking the effective rank. For the moment
    covariance S = U'U (U the N x L entity score matrix) it comes from
    the thin SVD of U, with no Cholesky tried when N < L.
    """
    theta_all = None
    if model.transform in (TransformKind.QUASI_DEMEAN, TransformKind.WITHIN):
        design = build_design(
            replace(model, effects="none", transform=TransformKind.NONE,
                    intercept=False), data
        )
        design.model = model
        theta = 1.0
        if model.transform is TransformKind.QUASI_DEMEAN:
            if components is None:
                from .diagnostics import swamy_arora

                components = swamy_arora(model, data)
            theta = theta_all = components.theta(design.entity_counts())
        design.X = _demean_by_entity(design.X, design.entity_ids, theta)
        design.y = _demean_by_entity(design.y, design.entity_ids, theta)
    else:
        design = build_design(model, data)

    names = list(design.x_names)
    X, y = design.X, design.y
    # the within transform absorbs the intercept; it is derived from the
    # entity means afterwards instead of entering the design
    derive_const = (
        model.intercept and model.transform is TransformKind.WITHIN
    )
    if model.intercept and not derive_const and model.transform not in _CALENDAR_TRANSFORMS:
        if model.transform is TransformKind.QUASI_DEMEAN:
            X = np.column_stack([X, 1.0 - theta_all[design.entity_ids]])
        else:
            X = np.column_stack([X, np.ones(design.n)])
        names = names + ["const"]
    k = X.shape[1]
    _check_rank(X, names)

    if isinstance(instruments, InstrumentMatrix):
        zmat = instruments
        if zmat.matrix.shape[0] != design.n:
            raise EstimationError(
                f"instrument matrix has {zmat.matrix.shape[0]} rows, sample has {design.n}"
            )
        inst_spec = None
    else:
        inst_spec = instruments
        zmat = assemble(
            instruments, data, design.sample,
            transform=model.transform, theta=theta_all, n_regressors=k,
        )
    Z = zmat.matrix
    if Z.shape[1] < k:
        raise RankError(
            f"{Z.shape[1]} instrument column(s) cannot identify {k} parameters", names
        )
    G = Z.T @ X
    if np.linalg.matrix_rank(G) < k:
        raise RankError("Z'X is rank deficient; instruments do not identify "
                        f"{list(names)}", names)
    v = Z.T @ y
    starts = _entity_starts(design.entity_ids)

    A1 = _one_step_weight_blocks(design, Z)
    W, w_rank = _invert_weight(A1, on_singular, "one-step")
    W1 = W
    beta = _gmm_beta(G, W, v, names)
    steps = 1
    trace: list[float] = []

    if weighting.kind in ("two_step", "n_step"):
        max_iter = 1 if weighting.kind == "two_step" else weighting.max_iter
        converged = weighting.kind == "two_step"
        for _ in range(max_iter):
            U_prev = _scores(Z, y - X @ beta, starts)
            W, w_rank = _invert_weight(None, on_singular, "moment covariance", U_prev)
            beta_new = _gmm_beta(G, W, v, names)
            steps += 1
            delta = float(np.max(np.abs(beta_new - beta)))
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
    alphas = None
    if model.transform is TransformKind.WITHIN:
        ent_ids = design.entity_ids[starts]
        xbar = _entity_means(design.X_level, starts)
        alphas = np.full(len(design.data.entities), np.nan)
        alphas[ent_ids] = _entity_means(design.y_level, starts) - xbar @ beta
        fitted_level_rows = alphas[design.entity_ids] + design.X_level @ beta
    elif model.transform is TransformKind.QUASI_DEMEAN:
        X_lvl = design.X_level
        if model.intercept:
            X_lvl = np.column_stack([X_lvl, np.ones(design.n)])
        fitted_level_rows = X_lvl @ beta
    elif model.transform is TransformKind.NONE:
        fitted_level_rows = fitted
    else:
        fitted_level_rows = None

    if derive_const:
        w = xbar.mean(axis=0)
        const = float(np.nanmean(alphas[ent_ids]))
        cov_ext = np.zeros((k + 1, k + 1))
        cov_ext[:k, :k] = cov
        cov_ext[k, k] = float(w @ cov @ w)
        cov_ext[:k, k] = cov_ext[k, :k] = -cov @ w
        beta = np.append(beta, const)
        cov = cov_ext
        names = names + ["const"]

    r2 = _squared_correlation(y, fitted)
    result = _result_shell(
        f"gmm/{model.transform.value}", design, names, beta, cov, resid, fitted,
        weighting_matrix=W,
        moment_covariance=S_final,
        instruments=zmat,
        instrument_spec=inst_spec,
        weighting=weighting,
        theta=theta_all,
        variance_components=components,
        design_matrix=X,
        weighting_rank=w_rank,
        entity_effects=alphas,
    )
    result.steps_taken = steps
    result.r_squared_weighted = r2
    # quasi-demeaned runs also report the level-space (unweighted) fit;
    # the two coincide exactly when theta = 0
    if model.transform is TransformKind.QUASI_DEMEAN:
        result.r_squared_unweighted = _squared_correlation(
            design.y_level, fitted_level_rows
        )
    else:
        result.r_squared_unweighted = r2
    result.fitted_levels = _level_fit_table(design, fitted_level_rows, gmm_fitted=fitted)
    result.iteration_trace = tuple(trace)
    return result


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
    design: Design,
    fitted_level_rows: np.ndarray | None,
    gmm_fitted: np.ndarray | None = None,
) -> FitTable:
    """Assemble the (entity, period, actual, fitted) table.

    Level estimators pass their level fit per row directly; transformed
    fits are pushed back to level units through the inverse transform
    anchored on the actual series.
    """
    model, data = design.model, design.data
    if model.transform in _CALENDAR_TRANSFORMS:
        assert gmm_fitted is not None
        grid_fit = np.full((data.n_entities, data.n_periods), np.nan)
        grid_mask = np.zeros((data.n_entities, data.n_periods), dtype=bool)
        per_idx = design.periods - data.periods[0]
        grid_fit[design.entity_ids, per_idx] = gmm_fitted
        grid_mask[design.entity_ids, per_idx] = True
        dep = data.require(model.dependent)
        lvl, lvl_mask = reconstruct_levels(
            grid_fit, grid_mask, dep.values, dep.mask, model.transform
        )
        fitted_level = lvl[design.entity_ids, per_idx]
        level_mask = lvl_mask[design.entity_ids, per_idx]
        actual_transformed = design.y
        fitted_transformed = gmm_fitted
    else:
        fitted_level = fitted_level_rows
        level_mask = np.ones(design.n, dtype=bool)
        actual_transformed = design.y
        fitted_transformed = (
            gmm_fitted if gmm_fitted is not None else fitted_level_rows
        )
    return FitTable(
        entities=design.data.entities,
        entity_ids=design.entity_ids,
        periods=design.periods,
        actual_transformed=np.asarray(actual_transformed, dtype=float),
        fitted_transformed=np.asarray(fitted_transformed, dtype=float),
        actual_level=np.asarray(design.y_level, dtype=float),
        fitted_level=np.asarray(fitted_level, dtype=float),
        level_mask=level_mask,
    )


def fitted_and_levels(result: EstimationResult) -> FitTable:
    """Actual and fitted values, transformed and mapped back to levels."""
    if result.fitted_levels is None:
        raise EstimationError("result carries no fitted values")
    return result.fitted_levels
