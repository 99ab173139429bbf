"""GMM instrument matrix construction.

Two kinds of columns feed the instrument matrix:

* static blocks: lags of a variable valued at the sample rows, plus an
  optional intercept column. These are transformed like the equation
  (demeaned, quasi-demeaned, differenced or deviated) so that the moment
  conditions refer to the same transformed errors.
* dynamic blocks: period-specific level lags in the style of
  Holtz-Eakin/Arellano-Bond. Each equation period gets one column per
  available level lag, from the starting lag back to the entity's first
  observation or an optional bound; the column is zero outside its
  period block. Collapsed mode stacks all periods into one column per
  lag depth.

Missing level lags are zero-filled inside blocks rather than dropping
the observation. Columns that come out identically zero are pruned with
a warning so weighting matrices stay invertible.
"""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs

from .errors import DataError, EstimationError
from .panel import AlignedSample, PanelDataset, lagged_grid
from .transforms import TransformKind, apply_grid, demean_by_entity

logger = logging.getLogger(__name__)

_POTRF, _TRTRI = get_lapack_funcs(("potrf", "trtri"), (np.zeros(1),))


@dataclass(frozen=True)
class StaticInstrument:
    """Lags ``lag_from..lag_to`` of one variable as instrument columns."""

    variable: str
    lag_from: int = 0
    lag_to: int = 0

    def __post_init__(self):
        if self.lag_from < 0 or self.lag_to < self.lag_from:
            raise ValueError(f"bad static lag range {self.lag_from}..{self.lag_to}")


@dataclass(frozen=True)
class DynamicInstrument:
    """Arellano-Bond style dynamic block for one variable.

    ``start_lag`` is the shallowest level lag used (2 for the dependent
    variable of a differenced or deviated equation); ``max_lag`` bounds
    the depth, None meaning all the way back to the first observation.
    """

    variable: str
    start_lag: int = 2
    max_lag: int | None = None
    collapsed: bool = False

    def __post_init__(self):
        if self.start_lag < 1:
            raise ValueError("dynamic instrument starting lag must be >= 1")
        if self.max_lag is not None and self.max_lag < self.start_lag:
            raise ValueError("deepest lag bound must be >= starting lag")


@dataclass(frozen=True)
class InstrumentSpec:
    """Declared instrument set: dynamic blocks, static lags, intercept."""

    dynamic: tuple[DynamicInstrument, ...] = ()
    static: tuple[StaticInstrument, ...] = ()
    include_intercept: bool = False

    def is_empty(self) -> bool:
        return not (self.dynamic or self.static or self.include_intercept)


_DYN_RE = re.compile(
    r"^dyn\(\s*(?P<var>\w+)\s*,\s*(?P<start>\d+)\s*(?:,\s*(?P<bound>\d+)\s*)?\)"
    r"(?P<collapse>:collapse)?$"
)
_STATIC_RE = re.compile(
    r"^static\(\s*(?P<var>\w+)\s*,\s*(?P<from>\d+)\s*(?:\.\.\s*(?P<to>\d+)\s*)?\)$"
)


def parse_instruments(text: str) -> InstrumentSpec:
    """Parse the CLI instrument grammar.

    Comma-separated terms: ``dyn(VAR,START[,BOUND])[:collapse]``,
    ``static(VAR,FROM..TO)``, ``static(VAR,LAG)``, ``intercept``.
    """
    dynamic: list[DynamicInstrument] = []
    static: list[StaticInstrument] = []
    intercept = False
    # split on commas not inside parentheses
    terms, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            terms.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    terms.append("".join(cur))
    for raw in terms:
        term = raw.strip()
        if not term:
            continue
        if term.lower() == "intercept":
            intercept = True
            continue
        m = _DYN_RE.match(term)
        if m:
            bound = m.group("bound")
            dynamic.append(
                DynamicInstrument(
                    variable=m.group("var"),
                    start_lag=int(m.group("start")),
                    max_lag=int(bound) if bound else None,
                    collapsed=bool(m.group("collapse")),
                )
            )
            continue
        m = _STATIC_RE.match(term)
        if m:
            lag_from = int(m.group("from"))
            lag_to = int(m.group("to")) if m.group("to") else lag_from
            static.append(StaticInstrument(m.group("var"), lag_from, lag_to))
            continue
        raise DataError(f"cannot parse instrument term {term!r}")
    return InstrumentSpec(tuple(dynamic), tuple(static), intercept)


@dataclass(frozen=True)
class InstrumentMatrix:
    """Assembled per-observation instrument columns and their Gram Z'Z."""

    matrix: np.ndarray           # (n_rows, n_columns)
    gram: np.ndarray             # (n_columns, n_columns), matrix.T @ matrix
    labels: tuple[str, ...]
    rank: int
    pruned: tuple[str, ...] = ()

    def __post_init__(self):
        self.matrix.setflags(write=False)
        self.gram.setflags(write=False)

    @property
    def n_columns(self) -> int:
        return self.matrix.shape[1]

    @property
    def full_rank(self) -> bool:
        """Whether the columns are linearly independent."""
        return self.rank == self.n_columns


def _lag_column(
    data: PanelDataset,
    sample: AlignedSample,
    variable: str,
    lag: int,
    transform: TransformKind = TransformKind.NONE,
) -> tuple[np.ndarray, np.ndarray]:
    """Lag ``lag`` of ``variable`` at the sample rows, and where it is present.

    FD/OD ``transform`` is applied on the grid before the rows are read;
    any other leaves the level values.
    """
    grid = lagged_grid(data, variable, lag)
    values, mask = grid.values, grid.mask
    if transform.is_calendar:
        values, mask = apply_grid(transform, values, mask)
    per_idx = sample.periods - data.periods[0]
    return values[sample.entity_ids, per_idx], mask[sample.entity_ids, per_idx]


def build_dynamic_block(
    data: PanelDataset, sample: AlignedSample, dyn: DynamicInstrument
) -> tuple[np.ndarray, list[str]]:
    """Period-block level-lag columns for one variable.

    For each equation period t appearing in the sample, one column per
    lag j = start..depth(t), valued x_{a,t-j} on rows of period t (zero
    when the level cell is absent) and zero elsewhere. Collapsed mode
    returns one column per lag depth with all periods stacked. All lags
    are read from the level grid at once and scattered in one assignment.
    """
    series = data.require(dyn.variable)
    p0 = data.periods[0]
    eq_periods = np.unique(sample.periods).tolist()

    def lags_at(t: int) -> range:
        depth = t - p0 if dyn.max_lag is None else min(t - p0, dyn.max_lag)
        return range(dyn.start_lag, depth + 1)

    lags = lags_at(eq_periods[-1])
    if not lags:
        raise EstimationError(
            f"empty instrument block for dyn({dyn.variable},{dyn.start_lag}): "
            "no usable lags at any equation period"
        )
    # every lag in one read of the level grid: column j holds period t - lags[j]
    src = (sample.periods - p0)[:, None] - np.asarray(lags)[None, :]
    ents, cells = sample.entity_ids[:, None], np.maximum(src, 0)
    present = series.mask[ents, cells] & (src >= 0)
    level = np.where(present, series.values[ents, cells], 0.0)
    if dyn.collapsed:
        return level, [f"dyn({dyn.variable},{j})" for j in lags]
    # period t's lags are a prefix of ``lags``: scatter each row's prefix
    # into its period's columns, zero elsewhere
    widths = np.array([len(lags_at(t)) for t in eq_periods])
    period = np.searchsorted(eq_periods, sample.periods)  # index into eq_periods
    used = np.arange(len(lags)) < widths[period][:, None]
    rows, cols = np.nonzero(used)
    out = np.zeros((sample.n_rows, int(widths.sum())))
    out[rows, (np.cumsum(widths) - widths)[period[rows]] + cols] = level[used]
    labels = [f"dyn({dyn.variable},{j})@{t}" for t in eq_periods for j in lags_at(t)]
    return out, labels


def build_static_block(
    data: PanelDataset,
    sample: AlignedSample,
    static: StaticInstrument,
    transform: TransformKind = TransformKind.NONE,
    theta: float | np.ndarray | None = None,
) -> tuple[np.ndarray, list[str]]:
    """Lag columns of one variable valued at the sample rows.

    The column is transformed like the equation: calendar transforms
    (FD/OD) are applied on the grid before reading the rows; demeaning
    transforms use per-entity means over the sample rows where the lag is
    present. Absent cells are zero-filled after transforming, and a column
    at most 1e-12 of the variable's largest level, rounding noise, is zeroed.
    """
    series = data.require(static.variable)
    level = float(np.max(np.abs(series.values[series.mask]), initial=0.0))
    cols: list[np.ndarray] = []
    labels: list[str] = []
    for j in range(static.lag_from, static.lag_to + 1):
        if j >= data.n_periods:
            raise DataError(
                f"static instrument lag {j} of {static.variable!r} exceeds panel depth"
            )
        col, present = _lag_column(data, sample, static.variable, j, transform)
        if transform in (TransformKind.WITHIN, TransformKind.QUASI_DEMEAN):
            scale = 1.0 if transform is TransformKind.WITHIN else theta
            if scale is None:
                raise ValueError("quasi_demean static instruments need theta")
            col = demean_by_entity(col, sample.entity_ids, scale, present)
        col = np.where(present, col, 0.0)
        if not np.any(present):
            raise DataError(
                f"static instrument {static.variable!r} lag {j} has no present values"
            )
        if np.max(np.abs(col)) <= 1e-12 * level:
            col = np.zeros_like(col)
        cols.append(col)
        labels.append(static.variable if j == 0 else f"{static.variable}(-{j})")
    return np.column_stack(cols), labels


def intercept_column(
    sample: AlignedSample,
    transform: TransformKind,
    theta: float | np.ndarray | None = None,
) -> np.ndarray:
    """Intercept instrument under the equation transform.

    Ones for level equations, (1 - theta_a) under quasi-demeaning, and
    identically zero under within/FD/OD (annihilated, pruned later).
    """
    n = sample.n_rows
    if transform is TransformKind.QUASI_DEMEAN:
        if theta is None:
            raise ValueError("quasi_demean needs theta")
        thetas = np.broadcast_to(np.asarray(theta, dtype=float), (len(sample.entities),))
        return 1.0 - thetas[sample.entity_ids]
    if transform is TransformKind.WITHIN or transform.is_calendar:
        return np.zeros(n)
    return np.ones(n)


def assemble(
    spec: InstrumentSpec,
    data: PanelDataset,
    sample: AlignedSample,
    transform: TransformKind = TransformKind.NONE,
    theta: float | np.ndarray | None = None,
) -> InstrumentMatrix:
    """Concatenate static and dynamic blocks into one instrument matrix.

    All-zero columns are pruned with a warning, so no variable's units
    decide what goes; ``build_static_block`` zeroes its rounding noise.
    The rank is that of the columns scaled to unit largest magnitude.
    """
    if spec.is_empty():
        raise EstimationError("instrument specification is empty")
    blocks: list[np.ndarray] = []
    labels: list[str] = []
    if spec.include_intercept:
        blocks.append(intercept_column(sample, transform, theta)[:, None])
        labels.append("const")
    for st in spec.static:
        block, names = build_static_block(data, sample, st, transform, theta)
        blocks.append(block)
        labels.extend(names)
    for dyn in spec.dynamic:
        block, names = build_dynamic_block(data, sample, dyn)
        blocks.append(block)
        labels.extend(names)
    matrix = np.hstack(blocks)

    alive = np.any(matrix != 0.0, axis=0)
    pruned = tuple(lab for lab, keep in zip(labels, alive) if not keep)
    if pruned:
        logger.warning("pruned %d identically-zero instrument column(s): %s",
                       len(pruned), ", ".join(pruned))
        # C order, as unpruned: the fit is then bit for bit the one without them
        matrix = np.ascontiguousarray(matrix[:, alive])
        labels = [lab for lab, keep in zip(labels, alive) if keep]
    if matrix.shape[1] == 0:
        raise EstimationError("all instrument columns were pruned")

    # the one-step weight starts from this Gram (``fit_gmm``)
    gram = matrix.T @ matrix
    return InstrumentMatrix(matrix=matrix, gram=gram, labels=tuple(labels),
                            rank=_scaled_rank(matrix, gram), pruned=pruned)


def _scaled_rank(matrix: np.ndarray, gram: np.ndarray) -> int:
    """Rank of the columns each over its largest magnitude (none is zero).

    So no variable's units decide the rank. It is ``matrix_rank`` of the
    scaled copy unless the Gram certifies full rank first. Let D hold the
    column maxima, Zs = Z/D the M x L scaled matrix and R the Cholesky
    factor of the computed D^-1 Z'Z D^-1. With columns of magnitude within
    1e+-100 no Gram product overflows, and underflow errs by far less than
    eps, so by Higham (2002) sections 3.5 and 10.1 Zs'Zs = R'R + E with
    ||E||_2 <= (M + L + 3) eps ||R||_F^2, up to second-order terms; and
    ||R||_F^2 is trace(Zs'Zs) up to the same error. If ||R||_F ||R^-1||_F
    < 0.1 / sqrt(M L eps), the computed R^-1 is accurate to well under 1%
    and sigma_min(Zs)^2 >= ||R||_F^2 (100 M L - M - L - 3) eps, so
    sigma_min / sigma_max of Zs is about 10 sqrt(M L eps) or more. That is
    far above ``matrix_rank``'s cut of max(M, L) eps and its own rounding
    (and M < L cannot pass), so the certificate says full rank only where
    ``matrix_rank`` does. A NaN or infinite norm fails the comparison.
    """
    n_rows, n_cols = matrix.shape
    top = np.max(np.abs(matrix), axis=0)
    if np.all((top >= 1e-100) & (top <= 1e100)):
        factor, info = _POTRF(gram / np.outer(top, top), lower=False)
        if info == 0:
            inverse, info = _TRTRI(factor, lower=False)
            product = np.linalg.norm(factor) * np.linalg.norm(inverse)
            if info == 0 and product < 0.1 / math.sqrt(n_rows * n_cols * np.finfo(float).eps):
                return n_cols
    return int(np.linalg.matrix_rank(matrix / top))
