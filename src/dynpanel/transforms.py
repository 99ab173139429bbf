"""Panel transformations on the entity-by-period grid and on sample rows.

The calendar transforms work on a whole (entities, periods) value grid
and its presence mask at once, and never mix values across rows: first
differences are one masked slice difference, and forward orthogonal
deviations read the sums and counts of later present cells off a reverse
``cumsum`` along each row. Missingness propagates. To transform one
entity's vector, pass it as a one-row grid: ``apply_grid(kind, v[None],
m[None])``.

Within and quasi-demeaning live in ``demean_by_entity``, which works on
sample rows instead of the grid. Sample rows are grouped by entity, so
one offset per entity (``entity_starts``) and ``np.add.reduceat`` give
per-entity means and demeaned columns.
"""

from __future__ import annotations

from enum import Enum

import numpy as np


class TransformKind(Enum):
    """Which fixed-effect-removal (or none) transform a model uses."""

    NONE = "none"
    WITHIN = "within"
    FIRST_DIFFERENCE = "first_difference"
    ORTHOGONAL_DEVIATION = "orthogonal_deviation"
    QUASI_DEMEAN = "quasi_demean"

    @property
    def is_calendar(self) -> bool:
        """FD and OD: each output cell reads other periods of its entity."""
        return self in (TransformKind.FIRST_DIFFERENCE, TransformKind.ORTHOGONAL_DEVIATION)


def lag(values: np.ndarray, mask: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Shift back by k calendar periods along the last axis; missing where
    the source is."""
    if k < 1:
        raise ValueError("lag order must be >= 1")
    out_v = np.full_like(values, np.nan, dtype=float)
    out_m = np.zeros_like(mask)
    if k < values.shape[-1]:
        out_v[..., k:] = values[..., :-k]
        out_m[..., k:] = mask[..., :-k]
    return out_v, out_m


def _first_difference_grid(values: np.ndarray, mask: np.ndarray):
    out_v = np.full_like(values, np.nan, dtype=float)
    out_m = np.zeros_like(mask)
    both = np.logical_and(mask[:, 1:], mask[:, :-1], out=out_m[:, 1:])
    np.subtract(values[:, 1:], values[:, :-1], out=out_v[:, 1:], where=both)
    return out_v, out_m


def _later_sums(values: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum and count of the present cells after each period, per row.

    A reverse cumsum over a leading 0.0 adds the same terms in the same
    order as a backward running sum started at 0.0, so the sums are
    bit-identical to that loop.
    """
    n, T = values.shape
    sums = np.zeros((n, T + 1))
    sums[:, 1:] = np.where(mask, values, 0.0)[:, ::-1]
    np.cumsum(sums, axis=1, out=sums)
    counts = np.zeros((n, T + 1), dtype=np.int64)
    counts[:, 1:] = mask[:, ::-1]
    np.cumsum(counts, axis=1, out=counts)
    return sums[:, T - 1::-1], counts[:, T - 1::-1]


def _orthogonal_deviation_grid(values: np.ndarray, mask: np.ndarray):
    later_sum, later_n = _later_sums(values, mask)
    out_m = mask & (later_n > 0)
    out_v = np.full_like(values, np.nan, dtype=float)
    n = later_n[out_m]
    out_v[out_m] = np.sqrt(n / (n + 1.0)) * (values[out_m] - later_sum[out_m] / n)
    return out_v, out_m


def apply_grid(kind: TransformKind, values: np.ndarray,
               mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """FD or OD of every row of an (entities, periods) grid.

    FD is x_t - x_{t-1} where both cells are present. OD at a present
    period t with T_t later present values (gaps skipped) is
    sqrt(T_t / (T_t + 1)) * (x_t - their mean), which keeps homoskedastic
    white noise white; a row's last present period has none. Any other
    kind raises ValueError: demeaning is ``demean_by_entity``.
    """
    if kind is TransformKind.FIRST_DIFFERENCE:
        return _first_difference_grid(values, mask)
    if kind is TransformKind.ORTHOGONAL_DEVIATION:
        return _orthogonal_deviation_grid(values, mask)
    raise ValueError(f"apply_grid runs FD and OD only, not {kind.value!r}")


def entity_starts(entity_ids: np.ndarray) -> np.ndarray:
    """Row offset where each entity's block of rows begins.

    Sample rows come from ``np.nonzero`` on the entity x period grid, so
    they are grouped by entity, in period order; the block sums rely on it.
    Increasing heads prove it; in any other order no head may repeat.
    """
    starts = np.concatenate(([0], np.flatnonzero(np.diff(entity_ids)) + 1))
    heads = entity_ids[starts]
    if not np.all(heads[1:] > heads[:-1]) and np.unique(heads).size != starts.size:
        raise ValueError("design rows are not grouped by entity")
    return starts


def entity_means(arr: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per-entity means of the rows of ``arr``, one row per entity."""
    counts = np.diff(starts, append=arr.shape[0])
    sums = np.add.reduceat(arr, starts, axis=0)
    return sums / counts.reshape((-1,) + (1,) * (arr.ndim - 1))


def demean_by_entity(
    arr: np.ndarray,
    entity_ids: np.ndarray,
    theta: np.ndarray | float = 1.0,
    present: np.ndarray | None = None,
) -> np.ndarray:
    """Subtract theta_a times the per-entity mean over sample rows.

    ``theta`` is a scalar or one weight per entity index, each in [0, 1]:
    0 leaves the rows as they are, 1 is the within transform. Given a mask
    ``present`` shaped like ``arr``, each mean runs over the entity's
    present cells only (an entity with none gets no shift), and absent
    cells carry no meaningful value on return.
    """
    thetas = np.asarray(theta, dtype=float)
    if not np.all((thetas >= 0.0) & (thetas <= 1.0)):
        raise ValueError(f"theta must be in [0, 1], got {theta}")
    arr = np.asarray(arr, dtype=float)
    starts = entity_starts(entity_ids)
    sizes = np.diff(starts, append=arr.shape[0])
    if present is None:
        present = np.ones(arr.shape, dtype=bool)
    sums = np.add.reduceat(np.where(present, arr, 0.0), starts, axis=0)
    means = sums / np.maximum(np.add.reduceat(present.astype(int), starts, axis=0), 1)
    if thetas.ndim:
        thetas = thetas[entity_ids[starts]]
    shift = means * thetas.reshape((-1,) + (1,) * (arr.ndim - 1))
    return arr - np.repeat(shift, sizes, axis=0)


def reconstruct_levels(
    fitted: np.ndarray,
    fitted_mask: np.ndarray,
    actual: np.ndarray,
    actual_mask: np.ndarray,
    kind: TransformKind,
) -> tuple[np.ndarray, np.ndarray]:
    """Map transformed fitted values back to level units on the grid.

    For FIRST_DIFFERENCE the level fit at t is the actual level at t-1
    plus the fitted difference. For ORTHOGONAL_DEVIATION it is the fitted
    deviation divided by its scale factor plus the mean of the actual
    later present values. Feeding the transformed actuals back through
    reproduces the original levels exactly. Cells without an anchor are
    left missing.
    """
    if not kind.is_calendar:
        raise ValueError(f"no level reconstruction for transform {kind.value!r}")
    out_v = np.full_like(actual, np.nan, dtype=float)
    if kind is TransformKind.FIRST_DIFFERENCE:
        out_m = np.zeros_like(actual_mask)
        out_m[:, 1:] = anchor = actual_mask[:, :-1] & fitted_mask[:, 1:]
        out_v[out_m] = actual[:, :-1][anchor] + fitted[out_m]
        return out_v, out_m
    later_sum, later_n = _later_sums(actual, actual_mask)
    out_m = actual_mask & fitted_mask & (later_n > 0)
    n = later_n[out_m]
    out_v[out_m] = fitted[out_m] / np.sqrt(n / (n + 1.0)) + later_sum[out_m] / n
    return out_v, out_m
