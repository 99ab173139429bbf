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

from .errors import DataError, EstimationError, require_int
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
        require_int("lag_from", self.lag_from)
        require_int("lag_to", self.lag_to)
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
        require_int("start_lag", self.start_lag)
        if self.max_lag is not None:
            require_int("max_lag", self.max_lag)
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
    rank: int                    # of the columns over their maxima, ``_scaled_rank``
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


def build_dynamic_block(
    data: PanelDataset, sample: AlignedSample, dyn: DynamicInstrument
) -> tuple[np.ndarray, list[str]]:
    """Period-block level-lag columns for one variable and their labels.

    For each equation period t appearing in the sample, one column per
    lag j = start..depth(t), valued x_{a,t-j} on rows of period t (zero
    when the level cell is absent) and zero elsewhere, so a column is
    nonzero only on its own period's rows. Collapsed mode gives one column
    per lag depth with all periods stacked. All lags are read from the
    level grid at once and scattered in one assignment.
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
    rows = sample.entity_ids, sample.periods - data.periods[0]
    cols: list[np.ndarray] = []
    labels: list[str] = []
    for j in range(static.lag_from, static.lag_to + 1):
        if j >= data.n_periods:
            raise DataError(
                f"static instrument lag {j} of {static.variable!r} exceeds panel depth"
            )
        grid = lagged_grid(data, static.variable, j)
        values, mask = grid.values, grid.mask
        if transform.is_calendar:
            values, mask = apply_grid(transform, values, mask)
        col, present = values[rows], mask[rows]
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
    The rank is that of the columns scaled to unit largest magnitude, found
    period by period when the spec has only non-collapsed dynamic blocks.
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

    top = np.max(np.abs(matrix), axis=0)  # a NaN or inf cell keeps its column
    alive = top != 0.0
    pruned = tuple(lab for lab, keep in zip(labels, alive) if not keep)
    if pruned:
        logger.warning("pruned %d identically-zero instrument column(s): %s",
                       len(pruned), ", ".join(pruned))
        # C order, as unpruned: the fit is then bit for bit the one without them
        matrix = np.ascontiguousarray(matrix[:, alive])
        labels = [lab for lab, keep in zip(labels, alive) if keep]
        top = top[alive]
    if matrix.shape[1] == 0:
        raise EstimationError("all instrument columns were pruned")

    # the one-step weight starts from this Gram (``fit_gmm``)
    gram = matrix.T @ matrix
    by_period = not (spec.static or spec.include_intercept
                     or any(dyn.collapsed for dyn in spec.dynamic))
    rank = _scaled_rank(matrix, gram, top, sample.periods if by_period else None)
    return InstrumentMatrix(matrix=matrix, gram=gram, labels=tuple(labels),
                            rank=rank, pruned=pruned)


_EPS = np.finfo(float).eps


def _sigma_min_bound(gram: np.ndarray, n_rows: int, n_cols: int) -> float:
    """Certified lower bound on the least singular value of A, or 0.0.

    ``gram`` is A'A, or AA' for a wide A, of n_rows x n_cols scaled columns.
    """
    factor, info = _POTRF(gram, lower=False)
    if info == 0:
        inverse, info = _TRTRI(factor, lower=False)
        norm = np.linalg.norm(factor)
        product = norm * np.linalg.norm(inverse)
        if info == 0 and product < 0.1 / math.sqrt(n_rows * n_cols * _EPS):
            return float(norm * math.sqrt(product**-2 - (n_rows + n_cols + 3) * _EPS))
    return 0.0


def _period_block_rank(matrix: np.ndarray, scaled: np.ndarray, top: np.ndarray,
                       row_periods: np.ndarray) -> int | None:
    """Sum over periods t of min(m_t, l_t), or None if a block fails.

    Block t has the l_t columns whose first nonzero row is of period t and
    its m_t nonzero rows; its Gram is read off ``scaled`` (exact) if l_t <=
    m_t, else formed as B_t B_t'.
    """
    floor = 1e3 * max(matrix.shape) * _EPS * math.sqrt(float(np.trace(scaled)))
    nonzero = matrix != 0.0
    live = np.any(nonzero, axis=1)
    col_periods = row_periods[np.argmax(nonzero, axis=0)]
    order = np.argsort(col_periods, kind="stable")
    periods, starts, widths = np.unique(col_periods[order], return_index=True,
                                        return_counts=True)
    scaled = scaled[np.ix_(order, order)]
    # each nonzero sits in a live row and a column of one period: both cover the same
    heights = np.unique(row_periods[live], return_counts=True)[1]
    rank = 0
    for t, a, l, m in zip(periods, starts.tolist(), widths.tolist(), heights.tolist()):
        if l <= m:
            sub = scaled[a:a + l, a:a + l]
        else:
            cols = order[a:a + l]
            block = matrix[np.ix_(live & (row_periods == t), cols)] / top[cols]
            sub = block @ block.T
        if not _sigma_min_bound(sub, m, l) > floor:
            return None
        rank += min(m, l)
    return rank


def _in_scale(top: np.ndarray) -> bool:
    """Whether every column maximum ``top`` is within 1e+-100: then no product
    of the scaled columns overflows, and underflow errs by far less than eps."""
    return bool(np.all((top >= 1e-100) & (top <= 1e100)))


def certified_full_rank(gram: np.ndarray, top: np.ndarray, n_rows: int) -> bool:
    """Whether an n_rows x k matrix A is certified of full column rank k from A'A.

    ``gram`` is A'A and ``top`` each column's largest magnitude; the
    certificate judges As, A's columns each over its ``top``, so no
    column's units decide it. With ``_in_scale(top)``, let R be the
    Cholesky factor of the Gram of As. By Higham (2002) sections 3.5 and
    10.1 the exact Gram is R'R + E, ||E||_2 <= (m + k + 3) eps ||R||_F^2 up
    to second-order terms (m = n_rows). If p = ||R||_F ||R^-1||_F < 0.1 /
    sqrt(m k eps), the computed R^-1 is accurate to well under 1%, and
    sigma_min(As)^2 >= ||R||_F^2 (p^-2 - (m + k + 3) eps), about 100 m k eps
    ||As||_F^2 or more (``_sigma_min_bound``; a NaN norm fails). So a
    certified As has sigma_min/sigma_max of about 10 sqrt(m k eps) or more,
    2e-5 at 9,000 x 2. That is far above, rounding included, the cut of
    ``matrix_rank``, max(m, k) eps sigma_max, and that of a pivoted QR of
    As at 1e-12 |r_11|: each |r_jj| of the QR's triangular factor is at
    least its sigma_min, which is that of As, and |r_11| is at most
    sigma_max. Where the certificate
    passes, both find full rank; where it fails, nothing is decided and
    the caller runs its own factorization. ``_scaled_rank``,
    ``estimators._check_rank`` and ``fit_gmm``'s Z'X check call it.
    """
    return _in_scale(top) and _sigma_min_bound(gram / np.outer(top, top), n_rows,
                                               top.size) > 0.0


def _scaled_rank(matrix: np.ndarray, gram: np.ndarray, top: np.ndarray,
                 row_periods: np.ndarray | None = None) -> int:
    """Rank of the columns, each over its largest magnitude ``top`` (none is 0).

    So no variable's units decide the rank. It is ``matrix_rank`` of the
    scaled copy Zs (M x L) unless a certificate decides first: full rank
    if ``certified_full_rank`` passes on the Gram.

    ``row_periods``, given when every column is a non-collapsed dynamic one,
    holds each row's period; a column's period is that of its first nonzero
    row, as period t's columns are zero off its rows (``build_dynamic_block``).
    So up to a permutation Zs is block-diagonal, with the union of its
    period blocks' singular values. Each block certifies min(m, l) of them
    (``_sigma_min_bound``, as ``certified_full_rank`` argues) at 1e3 times
    the cut or more (sigma_max <= ||Zs||_F), beyond the SVD's backward
    error, a small multiple of eps sigma_max. The rest are exact zeros, a
    wide block's surplus and a period's empty rows, which the SVD reads far
    below its cut: on the brand panel's OD and FD matrices, 5.6e-17 of
    sigma_max or less against 5.7e-14. If a block fails, the Gram of Zs is
    tried, then the SVD.
    """
    n_rows, n_cols = matrix.shape
    if row_periods is not None and _in_scale(top):
        rank = _period_block_rank(matrix, gram / np.outer(top, top), top, row_periods)
        if rank is not None:
            return rank
    if certified_full_rank(gram, top, n_rows):
        return n_cols
    return int(np.linalg.matrix_rank(matrix / top))
