"""Dynamic panel estimation toolkit.

Pooled, fixed-effects, random-effects, and Arellano-Bond style GMM
estimation on first-differenced and forward-orthogonal-deviation
panels, with instrument construction, robust inference, specification
diagnostics, CSV panel ingestion, a letter-grade rating codec, and a
Monte Carlo harness.
"""

from .diagnostics import (
    ArTestResult,
    DiagnosticsReport,
    HausmanResult,
    JTestResult,
    LagSelectionResult,
    ab_serial_correlation,
    chi_square_sf,
    hausman,
    j_test,
    lag_selection,
    report_for,
    swamy_arora,
)
from .errors import (
    AlignmentError,
    DataError,
    DiagnosticError,
    DynpanelError,
    EstimationError,
    RankError,
    RatingError,
    SingularWeightingError,
    UnderIdentifiedError,
)
from .estimators import (
    ONE_STEP,
    TWO_STEP,
    EstimationResult,
    ExogTerm,
    ModelSpec,
    VarianceComponents,
    Weighting,
    fit_gmm,
    fit_plain,
    n_step,
)
from .instruments import (
    DynamicInstrument,
    InstrumentMatrix,
    InstrumentSpec,
    StaticInstrument,
    assemble,
    build_dynamic_block,
    build_static_block,
    parse_instruments,
)
from .panel import (
    AlignedSample,
    DescriptiveStats,
    PanelDataset,
    PanelSeries,
    align,
    describe,
    from_arrays,
    ingest_long_csv,
    ingest_wide_csv,
)
from .ratings import GRADE_SCALE, grade_to_numeric, numeric_to_grade
from .simulate import (
    DgpSpec,
    EstimatorConfig,
    McSummary,
    ar1_model,
    generate,
    run_experiment,
)
from .transforms import TransformKind, lag, reconstruct_levels

__version__ = "0.1.0"

__all__ = [
    "AlignedSample",
    "AlignmentError",
    "ArTestResult",
    "DataError",
    "DescriptiveStats",
    "DgpSpec",
    "DiagnosticError",
    "DiagnosticsReport",
    "DynamicInstrument",
    "DynpanelError",
    "EstimationError",
    "EstimationResult",
    "EstimatorConfig",
    "ExogTerm",
    "GRADE_SCALE",
    "HausmanResult",
    "InstrumentMatrix",
    "InstrumentSpec",
    "JTestResult",
    "LagSelectionResult",
    "McSummary",
    "ModelSpec",
    "ONE_STEP",
    "PanelDataset",
    "PanelSeries",
    "RankError",
    "RatingError",
    "SingularWeightingError",
    "StaticInstrument",
    "TWO_STEP",
    "TransformKind",
    "UnderIdentifiedError",
    "VarianceComponents",
    "Weighting",
    "ab_serial_correlation",
    "align",
    "ar1_model",
    "assemble",
    "build_dynamic_block",
    "build_static_block",
    "chi_square_sf",
    "describe",
    "fit_gmm",
    "fit_plain",
    "from_arrays",
    "generate",
    "grade_to_numeric",
    "hausman",
    "ingest_long_csv",
    "ingest_wide_csv",
    "j_test",
    "lag",
    "lag_selection",
    "n_step",
    "numeric_to_grade",
    "parse_instruments",
    "reconstruct_levels",
    "report_for",
    "run_experiment",
    "swamy_arora",
    "__version__",
]
