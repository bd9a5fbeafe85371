"""repro — reproduction of *Selectivity Estimation for Spatial Joins*
(Ning An, Zhen-Yu Yang, Anand Sivasubramaniam; ICDE 2001).

The library implements the paper's estimators — three sampling
techniques (RS, RSWR, SS), the Aref–Samet parametric baseline, the
Parametric Histogram (PH) and the Geometric Histogram (GH) — together
with the full substrate they run on: a geometry kernel, Hilbert curves,
R-trees (dynamic and packed) with a synchronized-traversal join, and
three more exact join algorithms used as ground truth.

Quickstart::

    from repro import make_paper_pair, GHEstimator, actual_selectivity

    ts, tcb = make_paper_pair("TS", "TCB", scale=50)
    estimate = GHEstimator(level=7).estimate(ts, tcb)
    truth = actual_selectivity(ts.rects, tcb.rects)

See ``examples/`` for runnable scenarios and ``python -m repro.eval``
for the figure-reproduction harness.
"""

from .core import (
    ESTIMATOR_KINDS,
    BasicGHEstimator,
    GHEstimator,
    JoinSelectivityEstimator,
    ParametricEstimator,
    PHEstimator,
    PreparedEstimator,
    SamplingEstimatorAdapter,
    StatisticsCatalog,
    catalog_for,
    create_estimator,
    optimize_join_order,
    relative_error_pct,
)
from .datasets import (
    SpatialDataset,
    load_dataset,
    make_paper_dataset,
    make_paper_pair,
    paper_pairs,
    save_dataset,
)
from .geometry import Rect, RectArray
from .histograms import (
    BasicGHHistogram,
    GHHistogram,
    PHHistogram,
    gh_selectivity,
    parametric_selectivity,
    ph_selectivity,
)
from .errors import (
    DegradedResultWarning,
    EstimationTimeout,
    EstimatorUnavailable,
    InvalidDatasetError,
    ReproError,
    TransientEstimationError,
)
from .join import actual_selectivity, join_count, join_pairs
from .perf import (
    BatchQuery,
    CachedEstimator,
    HistogramCache,
    dataset_fingerprint,
    estimate_many,
)
from .runtime import Deadline
from .sampling import SamplingJoinEstimator
from .service import (
    FaultPlan,
    FaultSpec,
    Provenance,
    ResilientEstimator,
    ResilientResult,
    ValidationReport,
    coerce_dataset,
    inject_faults,
    validate_dataset,
    validate_pair,
)

__version__ = "1.1.0"

__all__ = [
    "__version__",
    # geometry
    "Rect",
    "RectArray",
    # datasets
    "SpatialDataset",
    "make_paper_dataset",
    "make_paper_pair",
    "paper_pairs",
    "save_dataset",
    "load_dataset",
    # exact joins
    "join_count",
    "join_pairs",
    "actual_selectivity",
    # estimators
    "JoinSelectivityEstimator",
    "PreparedEstimator",
    "ParametricEstimator",
    "PHEstimator",
    "GHEstimator",
    "BasicGHEstimator",
    "SamplingEstimatorAdapter",
    "SamplingJoinEstimator",
    "ESTIMATOR_KINDS",
    "create_estimator",
    # histograms
    "PHHistogram",
    "GHHistogram",
    "BasicGHHistogram",
    "ph_selectivity",
    "gh_selectivity",
    "parametric_selectivity",
    # core services
    "StatisticsCatalog",
    "catalog_for",
    "optimize_join_order",
    "relative_error_pct",
    # serving performance (cache + batched estimation)
    "HistogramCache",
    "CachedEstimator",
    "BatchQuery",
    "estimate_many",
    "dataset_fingerprint",
    # error taxonomy
    "ReproError",
    "InvalidDatasetError",
    "EstimationTimeout",
    "EstimatorUnavailable",
    "TransientEstimationError",
    "DegradedResultWarning",
    # resilient estimation service
    "Deadline",
    "ResilientEstimator",
    "ResilientResult",
    "Provenance",
    "ValidationReport",
    "validate_dataset",
    "validate_pair",
    "coerce_dataset",
    "FaultPlan",
    "FaultSpec",
    "inject_faults",
]
