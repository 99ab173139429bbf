"""Exception types, and the integer checks of spec fields, shared across the package."""

import numbers


class DynpanelError(Exception):
    """Base class for all errors raised by this package."""


class DataError(DynpanelError):
    """Malformed input data: bad CSV, duplicate keys, unparseable cells."""


class AlignmentError(DynpanelError):
    """No estimable observations after aligning variables and lags."""


class RatingError(DynpanelError):
    """Unknown grade label or numeric value outside the rating scale."""


class EstimationError(DynpanelError):
    """Estimation cannot proceed or did not converge."""


class RankError(EstimationError):
    """Regressor or cross-moment matrix is rank deficient."""

    def __init__(self, message, columns=()):
        super().__init__(message)
        self.columns = tuple(columns)


class UnderIdentifiedError(EstimationError):
    """Fewer instrument columns than regressors."""


class SingularWeightingError(EstimationError):
    """GMM weighting matrix is singular.

    Usually means too many instrument columns for the number of
    cross-sections; collapse the dynamic blocks or bound the lag depth.
    """


class DiagnosticError(DynpanelError):
    """A specification test cannot be computed on the given result."""


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def require_int(name: str, value) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is an int or numpy integer, not a bool."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def require_non_negative_int(name: str, value) -> None:
    if not (_is_int(value) and value >= 0):
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
