"""Resilient estimation service: validation, deadlines, fallback, faults.

This package is the production front door over the estimator registry
(:mod:`repro.core.estimator`):

* :mod:`~repro.service.validate` — reject or repair malformed inputs
  (NaN/inf, inverted bounds, out-of-extent rectangles, mismatched
  universes) before any estimator sees them;
* :mod:`~repro.service.resilient` — :class:`ResilientEstimator` with
  per-call deadlines, bounded retry-with-backoff, and a graceful
  degradation chain ending at the parametric closed form, every answer
  carrying a :class:`Provenance` record; :class:`Descent`, the one
  walker down a fallback chain, which the serving front door shares;
* :mod:`~repro.service.faults` — a deterministic fault-injection
  harness (exceptions, latency, corrupted per-cell statistics at named
  stages) for chaos-testing the above.

Importing this package also registers ``"resilient"`` in
``ESTIMATOR_KINDS``, so ``create_estimator("resilient", primary="gh",
level=7, deadline_s=0.5)`` works like any other kind.
"""

from ..core.estimator import ESTIMATOR_KINDS
from ..errors import (
    DegradedResultWarning,
    EstimationTimeout,
    EstimatorUnavailable,
    InvalidDatasetError,
    ReproError,
    TransientEstimationError,
)
from ..runtime import Deadline, active_deadline, checkpoint, mutate, runtime_scope
from .faults import FaultPlan, FaultSpec, inject_faults, nan_corruption
from .resilient import (
    AttemptRecord,
    Descent,
    Provenance,
    ResilientEstimator,
    ResilientResult,
    default_fallback_chain,
)
from .validate import (
    VALIDATION_POLICIES,
    ValidationIssue,
    ValidationReport,
    check_coords,
    coerce_dataset,
    validate_dataset,
    validate_pair,
)

# The service is the registry's front door; make it constructible by name.
ESTIMATOR_KINDS.setdefault("resilient", ResilientEstimator)

__all__ = [
    # errors (re-exported for one-stop imports)
    "ReproError",
    "InvalidDatasetError",
    "EstimationTimeout",
    "EstimatorUnavailable",
    "TransientEstimationError",
    "DegradedResultWarning",
    # runtime
    "Deadline",
    "runtime_scope",
    "active_deadline",
    "checkpoint",
    "mutate",
    # validation
    "VALIDATION_POLICIES",
    "ValidationIssue",
    "ValidationReport",
    "check_coords",
    "coerce_dataset",
    "validate_dataset",
    "validate_pair",
    # resilient estimation
    "ResilientEstimator",
    "ResilientResult",
    "Provenance",
    "AttemptRecord",
    "Descent",
    "default_fallback_chain",
    # fault injection
    "FaultPlan",
    "FaultSpec",
    "inject_faults",
    "nan_corruption",
]
