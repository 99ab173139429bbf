"""Per-entity panel transformations.

All functions take a value vector and a presence mask indexed by calendar
period for a single entity, and return the transformed pair. Missingness
propagates; no transform ever mixes values across entities. Grid-level
helpers apply the same operation row by row to entity-by-period matrices.

Entity-block helpers work on sample rows instead of the grid. Sample rows
are grouped by entity, so one offset per entity (``entity_starts``) and
``np.add.reduceat`` give per-entity means and demeaned columns.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import EstimationError


class TransformKind(Enum):
    """Which fixed-effect-removal (or none) transform a model uses."""

    NONE = "none"
    WITHIN = "within"
    DUMMIES = "dummies"
    FIRST_DIFFERENCE = "first_difference"
    ORTHOGONAL_DEVIATION = "orthogonal_deviation"
    QUASI_DEMEAN = "quasi_demean"

    @classmethod
    def parse(cls, text: str) -> "TransformKind":
        aliases = {
            "pooled": cls.NONE,
            "none": cls.NONE,
            "within": cls.WITHIN,
            "fe": cls.WITHIN,
            "dummies": cls.DUMMIES,
            "lsdv": cls.DUMMIES,
            "fd": cls.FIRST_DIFFERENCE,
            "first_difference": cls.FIRST_DIFFERENCE,
            "od": cls.ORTHOGONAL_DEVIATION,
            "orthogonal_deviation": cls.ORTHOGONAL_DEVIATION,
            "re": cls.QUASI_DEMEAN,
            "quasi_demean": cls.QUASI_DEMEAN,
        }
        try:
            return aliases[text.strip().lower()]
        except KeyError:
            raise ValueError(f"unknown transform {text!r}") from None


def lag(values: np.ndarray, mask: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Shift back by k calendar periods; missing where the source is."""
    if k < 1:
        raise ValueError("lag order must be >= 1")
    out_v = np.full_like(values, np.nan, dtype=float)
    out_m = np.zeros_like(mask)
    if k < values.size:
        out_v[k:] = values[:-k]
        out_m[k:] = mask[:-k]
    return out_v, out_m


def first_difference(values: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x_t - x_{t-1} where both sides are present; missing otherwise."""
    out_v = np.full_like(values, np.nan, dtype=float)
    out_m = np.zeros_like(mask)
    both = mask[1:] & mask[:-1]
    out_v[1:][both] = values[1:][both] - values[:-1][both]
    out_m[1:] = both
    return out_v, out_m


def orthogonal_deviation(values: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward orthogonal deviation.

    At each present period t with T_t later present values (gaps are
    skipped), returns sqrt(T_t / (T_t + 1)) * (x_t - mean of those later
    values). The entity's last present period has no output. The scale
    factor keeps homoskedastic white noise white.
    """
    out_v = np.full_like(values, np.nan, dtype=float)
    out_m = np.zeros_like(mask)
    present = np.flatnonzero(mask)
    if present.size < 2:
        return out_v, out_m
    # walk backwards keeping a running sum of later present values
    later_sum = 0.0
    later_n = 0
    for t in present[::-1]:
        if later_n > 0:
            c = np.sqrt(later_n / (later_n + 1.0))
            out_v[t] = c * (values[t] - later_sum / later_n)
            out_m[t] = True
        later_sum += values[t]
        later_n += 1
    return out_v, out_m


def within_demean(values: np.ndarray, mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Subtract the entity's own mean over its present periods."""
    out_v = np.full_like(values, np.nan, dtype=float)
    out_m = mask.copy()
    if mask.any():
        out_v[mask] = values[mask] - values[mask].mean()
    return out_v, out_m


def quasi_demean(
    values: np.ndarray, mask: np.ndarray, theta: float
) -> tuple[np.ndarray, np.ndarray]:
    """x_t - theta * (entity mean); theta=0 is identity, theta=1 is within."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must be in [0, 1], got {theta}")
    out_v = np.full_like(values, np.nan, dtype=float)
    out_m = mask.copy()
    if mask.any():
        out_v[mask] = values[mask] - theta * values[mask].mean()
    return out_v, out_m


_VECTOR_TRANSFORMS = {
    TransformKind.FIRST_DIFFERENCE: first_difference,
    TransformKind.ORTHOGONAL_DEVIATION: orthogonal_deviation,
    TransformKind.WITHIN: within_demean,
}


def apply_grid(
    kind: TransformKind,
    values: np.ndarray,
    mask: np.ndarray,
    theta: float | np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Apply a transform entity-by-entity to an (entities, periods) grid.

    ``theta`` is required for QUASI_DEMEAN and may be per-entity.
    """
    if kind in (TransformKind.NONE, TransformKind.DUMMIES):
        return values.copy(), mask.copy()
    out_v = np.empty_like(values, dtype=float)
    out_m = np.empty_like(mask)
    if kind is TransformKind.QUASI_DEMEAN:
        if theta is None:
            raise ValueError("quasi_demean needs theta")
        thetas = np.broadcast_to(np.asarray(theta, dtype=float), (values.shape[0],))
        for i in range(values.shape[0]):
            out_v[i], out_m[i] = quasi_demean(values[i], mask[i], float(thetas[i]))
        return out_v, out_m
    fn = _VECTOR_TRANSFORMS[kind]
    for i in range(values.shape[0]):
        out_v[i], out_m[i] = fn(values[i], mask[i])
    return out_v, out_m


def entity_starts(entity_ids: np.ndarray) -> np.ndarray:
    """Row offset where each entity's block of rows begins.

    Sample rows come from ``np.nonzero`` on the entity x period grid, so
    they are grouped by entity, in period order; the block sums rely on it.
    """
    starts = np.concatenate(([0], np.flatnonzero(np.diff(entity_ids)) + 1))
    if np.unique(entity_ids[starts]).size != starts.size:
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

    ``theta`` is a scalar or one weight per entity index. Given a mask
    ``present`` shaped like ``arr``, each mean runs over the entity's
    present cells only (an entity with none gets no shift), and absent
    cells carry no meaningful value on return.
    """
    arr = np.asarray(arr, dtype=float)
    starts = entity_starts(entity_ids)
    sizes = np.diff(starts, append=arr.shape[0])
    if present is None:
        means = entity_means(arr, starts)
    else:
        sums = np.add.reduceat(np.where(present, arr, 0.0), starts, axis=0)
        means = sums / np.maximum(np.add.reduceat(present.astype(int), starts, axis=0), 1)
    thetas = np.asarray(theta, dtype=float)
    if thetas.ndim:
        thetas = thetas[entity_ids[starts]]
    shift = means * thetas.reshape((-1,) + (1,) * (arr.ndim - 1))
    return arr - np.repeat(shift, sizes, axis=0)


def expand_dummies(
    entity_ids: np.ndarray, n_entities: int, drop_first: bool = False
) -> tuple[np.ndarray, list[int]]:
    """Entity indicator columns for sample rows.

    Full-set mode (default) returns one column per entity appearing in the
    sample, meant for use without a global intercept. ``drop_first`` drops
    the first appearing entity's column for use next to an intercept.
    Returns the indicator block and the entity index each column encodes.
    """
    present = sorted(set(int(e) for e in entity_ids))
    if len(present) < 2:
        raise EstimationError("entity dummies need at least 2 entities in sample")
    if drop_first:
        present = present[1:]
    block = np.zeros((entity_ids.size, len(present)))
    for c, e in enumerate(present):
        block[entity_ids == e, c] = 1.0
    return block, present


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
    if kind not in (TransformKind.FIRST_DIFFERENCE, TransformKind.ORTHOGONAL_DEVIATION):
        raise ValueError(f"no level reconstruction for transform {kind.value!r}")
    out_v = np.full_like(actual, np.nan, dtype=float)
    out_m = np.zeros_like(actual_mask)
    n_entities = actual.shape[0]
    if kind is TransformKind.FIRST_DIFFERENCE:
        anchor = actual_mask[:, :-1] & fitted_mask[:, 1:]
        out_v[:, 1:][anchor] = actual[:, :-1][anchor] + fitted[:, 1:][anchor]
        out_m[:, 1:] = anchor
        return out_v, out_m
    for i in range(n_entities):
        present = np.flatnonzero(actual_mask[i])
        later_sum = 0.0
        later_n = 0
        for t in present[::-1]:
            if later_n > 0 and fitted_mask[i, t]:
                c = np.sqrt(later_n / (later_n + 1.0))
                out_v[i, t] = fitted[i, t] / c + later_sum / later_n
                out_m[i, t] = True
            later_sum += actual[i, t]
            later_n += 1
    return out_v, out_m
