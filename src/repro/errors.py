"""Structured error taxonomy for the estimation service.

Production AQP systems treat selectivity estimation as a best-effort,
budgeted operation: inputs may be malformed, statistics may be stale or
corrupted, and a build that is cheap at level 5 may blow a latency
budget at level 9.  The exceptions here give every failure mode a
distinct, catchable type so callers (and the
:class:`~repro.service.ResilientEstimator` fallback chain) can decide
*per mode* whether to repair, retry, degrade, or surface the error.

Design rules
------------
* Every library-specific exception derives from :class:`ReproError`, so
  ``except ReproError`` catches exactly the failures this library can
  anticipate (and nothing else).
* Each taxon *also* derives from the closest builtin
  (:class:`ValueError`, :class:`TimeoutError`, :class:`RuntimeError`) so
  pre-existing callers that catch builtins keep working — introducing
  the taxonomy is not a breaking change.
* :class:`DegradedResultWarning` is a *warning* category, not an error:
  the resilient service answers anyway and flags the degradation.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "InvalidDatasetError",
    "EstimationTimeout",
    "EstimatorUnavailable",
    "TransientEstimationError",
    "ServiceOverloadError",
    "ArtifactIntegrityError",
    "DegradedResultWarning",
]


class ReproError(Exception):
    """Base class of every anticipated failure in this library."""


class InvalidDatasetError(ReproError, ValueError):
    """Input data is malformed: NaN/inf coordinates, inverted min/max,
    rectangles outside the declared extent, missing/garbled keys in a
    dataset file, or mismatched extents between join partners.

    Subclasses :class:`ValueError` so existing ``except ValueError``
    call sites continue to work.
    """


class EstimationTimeout(ReproError, TimeoutError):
    """A per-call deadline expired at a cooperative checkpoint.

    Raised from :func:`repro.runtime.checkpoint` inside the GH/PH build
    loops and the sampling join when the active
    :class:`~repro.runtime.Deadline` has no budget left.  The ``stage``
    attribute names the checkpoint that noticed the expiry.
    """

    def __init__(self, message: str, *, stage: str | None = None) -> None:
        super().__init__(message)
        #: Name of the cooperative checkpoint that observed the expiry.
        self.stage = stage


class EstimatorUnavailable(ReproError, RuntimeError):
    """An estimator cannot produce a usable answer for this call.

    Covers corrupted per-cell statistics (non-finite estimates), missing
    optional dependencies, and rungs disabled by configuration.  The
    resilient service treats this as "skip to the next fallback rung".
    """


class TransientEstimationError(ReproError, RuntimeError):
    """A fault that is expected to succeed on retry (e.g. a hiccup in a
    storage or statistics backend).  The resilient service retries these
    with bounded backoff before falling back."""


class ServiceOverloadError(ReproError, RuntimeError):
    """The serving front door refused this request to protect the system.

    Raised by :mod:`repro.serve` admission control instead of buffering
    without bound: a full admission queue, an exhausted per-tenant token
    bucket, or the shed rung of the degradation ladder all reject with
    this type so clients can distinguish "retry later" from a failure of
    the estimation machinery.  ``reason`` is a short machine token
    (``"queue-full"``, ``"quota"``, ``"shed"``); ``queue_depth`` and
    ``tenant`` carry the observables behind the decision when known.
    """

    def __init__(
        self,
        message: str,
        *,
        reason: str = "overload",
        queue_depth: int | None = None,
        tenant: str | None = None,
    ) -> None:
        super().__init__(message)
        #: Machine-readable rejection cause ("queue-full", "quota", "shed").
        self.reason = reason
        #: Admission-queue depth observed at rejection time, when known.
        self.queue_depth = queue_depth
        #: Tenant whose quota rejected the request, when quota-based.
        self.tenant = tenant


class ArtifactIntegrityError(ReproError, RuntimeError):
    """A persisted catalog artifact failed an integrity check.

    Raised (and caught internally — a corrupt entry degrades to a miss)
    by ``repro.store`` when a manifest is unreadable, a payload file is
    truncated relative to its manifest, or a checksum/shape/dtype does
    not match what was published.  The atomic publish protocol makes
    this *unreachable* for crashes at publish time; seeing it means
    bit rot or an out-of-band writer.
    """


class DegradedResultWarning(UserWarning):
    """Warning category emitted when the resilient service answered from
    a fallback rung (or repaired its inputs) instead of failing.

    The answer is still a valid estimate — just produced by a coarser or
    cheaper technique than requested; the attached provenance record
    says which rung answered and why.
    """
