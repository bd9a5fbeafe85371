"""The resilient front door over the estimator registry.

:class:`ResilientEstimator` turns a best-effort estimator into a
budgeted, always-answers service call:

1. **Validate** both inputs (:mod:`repro.service.validate`) — repair or
   reject NaN/inf coordinates, inverted bounds, out-of-extent
   rectangles, and mismatched universes before any estimator runs.
2. **Budget** the call with a per-call :class:`~repro.runtime.Deadline`
   enforced at the cooperative checkpoints threaded through the GH/PH
   build loops and the sampling join.
3. **Retry** transient faults (:class:`TransientEstimationError`) with
   bounded exponential backoff.
4. **Degrade** down a fallback chain — by default
   ``GH(h) → GH(coarser) → PH → parametric`` — until a rung produces a
   finite, non-negative estimate.  The final parametric rung is a
   checkpoint-free closed form over first-order statistics, so it
   cannot time out and cannot be fault-injected: the chain always
   terminates with *some* answer.

Steps 3 and 4 are one :class:`Descent`, the walker the serving front
door (:mod:`repro.serve.loop`) descends through too.

Every call yields a :class:`Provenance` record naming the rung that
answered, every attempt made along the way, and what validation did.
When no fault fires and no repair is needed, the answer is bit-identical
to calling the primary estimator directly — the wrapper adds policy, not
perturbation.
"""

from __future__ import annotations

import math
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

from ..core.estimator import (
    BasicGHEstimator,
    GHEstimator,
    JoinSelectivityEstimator,
    PHEstimator,
    PreparedEstimator,
    SamplingEstimatorAdapter,
    create_estimator,
)
from ..datasets import SpatialDataset
from ..errors import (
    DegradedResultWarning,
    EstimationTimeout,
    EstimatorUnavailable,
    TransientEstimationError,
)
from ..predicates.base import Intersects
from ..predicates.estimators import (
    EndpointInequalityEstimator,
    InflatedEstimator,
    IntervalOverlapEstimator,
    create_predicate_estimator,
    predicate_of,
)
from ..runtime import Deadline, runtime_scope
from .validate import VALIDATION_POLICIES, ValidationReport, validate_pair

if TYPE_CHECKING:
    from ..perf.cache import FlatTreeCache, HistogramCache

__all__ = [
    "AttemptRecord",
    "Descent",
    "Provenance",
    "ResilientResult",
    "ResilientEstimator",
    "default_fallback_chain",
]

#: How many levels one coarsening hop drops.
_COARSEN_BY = 3


@dataclass(frozen=True, slots=True)
class AttemptRecord:
    """One attempt at one rung of the fallback chain.

    ``outcome`` is ``"ok"``, ``"error"``, ``"timeout"``, or
    ``"invalid-result"`` (the rung returned NaN/inf/negative — the
    signature of corrupted statistics).
    """

    rung: str
    rung_index: int
    attempt: int
    outcome: str
    detail: str = ""
    elapsed_s: float = 0.0


@dataclass(frozen=True, slots=True)
class Provenance:
    """Who answered, and what it took to get the answer."""

    rung: str  #: name of the estimator that produced the estimate
    rung_index: int  #: 0 = the primary answered; >0 = a fallback did
    degraded: bool  #: True when a fallback answered or inputs were repaired
    attempts: tuple[AttemptRecord, ...]
    validation: tuple[ValidationReport, ValidationReport] | None = None
    reason: str = ""  #: why the primary did not answer (empty when it did)

    @property
    def attempts_total(self) -> int:
        """Total attempts across all rungs (1 for a clean primary hit)."""
        return len(self.attempts)


@dataclass(frozen=True, slots=True)
class ResilientResult:
    """A guaranteed-finite estimate plus its provenance."""

    selectivity: float
    provenance: Provenance


def _rung_name(estimator: JoinSelectivityEstimator) -> str:
    """Stable display name for a rung (kind plus level when it has one)."""
    level = getattr(estimator, "level", None)
    return f"{estimator.name}(level={level})" if level is not None else estimator.name


def _kind_and_level(rung: JoinSelectivityEstimator) -> tuple[type, object]:
    return type(rung), getattr(rung, "level", None)


def _coarser(level: int, floor: int) -> tuple[int, ...]:
    """The one coarsening hop below ``level``, clamped at ``floor``
    (empty when ``level`` is already at or below the floor)."""
    coarser = max(floor, level - _COARSEN_BY)
    return (coarser,) if coarser < level else ()


def default_fallback_chain(
    primary: JoinSelectivityEstimator,
) -> tuple[JoinSelectivityEstimator, ...]:
    """The graceful-degradation ladder for a given primary estimator.

    * GH (revised or basic) at level ``h`` → GH at a coarser level →
      PH(min(h, 4)) → parametric;
    * PH at level ``h`` → PH at a coarser level → parametric;
    * endpoint inequality at level ``h`` → coarser level → level 0 (a
      single bucket: the closed-form ½ floor);
    * interval overlap at level ``h`` → coarser level → the 1-D
      parametric closed form;
    * inflated(inner) → the inner estimator's ladder, every rung
      re-wrapped at the same ε;
    * sampling → the matching histogram family at level 5 → its
      closed-form floor;
    * a closed form → (already the floor).

    Each hop trades accuracy for cost and for independence from the
    failed rung's machinery; a statistics-only closed form terminates
    every chain.  Every rung answers the *same question* as the primary:
    a predicate-aware primary degrades down its own predicate's ladder.
    This is the only place a ladder is defined — the resilient wrapper
    walks it on failure, the serving front door on pressure and failure.
    """
    if isinstance(primary, InflatedEstimator):
        return (primary,) + tuple(
            InflatedEstimator(rung, primary.eps)
            for rung in default_fallback_chain(primary.inner)[1:]
            if isinstance(rung, PreparedEstimator)
        )
    predicate = predicate_of(primary) or Intersects()
    rungs: list[JoinSelectivityEstimator] = [primary]
    if isinstance(primary, (GHEstimator, BasicGHEstimator)):
        rungs += [GHEstimator(level=lv) for lv in _coarser(primary.level, 1)]
        rungs.append(PHEstimator(level=min(primary.level, 4)))
    elif isinstance(primary, PHEstimator):
        rungs += [PHEstimator(level=lv) for lv in _coarser(primary.level, 1)]
    elif isinstance(primary, (EndpointInequalityEstimator, IntervalOverlapEstimator)):
        rungs += [
            type(primary)(primary.predicate, level=lv)
            for lv in _coarser(primary.level, 0)
        ]
    elif isinstance(primary, SamplingEstimatorAdapter):
        rungs.append(create_predicate_estimator("gh", predicate, level=5))
    floor = create_predicate_estimator("parametric", predicate)
    # A primary that already *is* the floor (same kind and level) ends
    # the chain on itself.
    if _kind_and_level(rungs[-1]) != _kind_and_level(floor):
        rungs.append(floor)
    return tuple(rungs)


def _invalid_reason(value: object) -> str | None:
    """Why ``value`` is not an acceptable selectivity, or None if it is."""
    if not isinstance(value, (int, float)):
        return f"non-numeric result {type(value).__name__}"
    if not math.isfinite(value):
        return f"non-finite result {value!r}"
    if value < 0:
        return f"negative result {value!r}"
    return None


class Descent:
    """One walk down a fallback chain — the only loop over a ladder.

    Iterating yields the rung to run next; the caller runs it inside
    ``with walk.attempt(): walk.value = ...``.  The ``with`` body may
    ``await``, so the sync front door (:class:`ResilientEstimator`) and
    the async one (:class:`~repro.serve.loop.EstimationServer`) share
    this object.  When the block exits, the walker records one
    :class:`AttemptRecord`, demotes a non-finite or negative value,
    retries a :class:`TransientEstimationError` up to ``retries`` times,
    and otherwise moves one rung down.  Only ``Exception`` is caught:
    cancellation and every other ``BaseException`` propagates.

    The walker never sleeps, so the async door cannot reach a blocking
    pause through it.  ``pause_s`` is the backoff owed before the next
    attempt (``backoff_s`` doubling per retry); a pause that would use up
    the remaining ``deadline`` is not owed, because the retry is dropped
    and the walk moves down instead.

    After the walk, ``index`` is the rung that answered (``len(chain)``
    when none did), ``value`` its answer, and ``error`` None — or, when
    every rung failed, the last failure.
    """

    def __init__(
        self,
        chain: Sequence[JoinSelectivityEstimator],
        start: int = 0,
        *,
        retries: int = 0,
        backoff_s: float = 0.0,
        deadline: Deadline | None = None,
    ) -> None:
        self.chain = tuple(chain)
        self.index = start
        self.retries = retries
        self.backoff_s = backoff_s
        self.deadline = deadline
        self.attempts: list[AttemptRecord] = []
        self.value = math.nan
        self.error: Exception | None = None
        self.pause_s = 0.0
        self._tries = 0
        self._answered = False

    def __iter__(self) -> Iterator[JoinSelectivityEstimator]:
        while not self._answered and self.index < len(self.chain):
            yield self.chain[self.index]

    @contextmanager
    def attempt(self) -> Iterator[None]:
        """Run one attempt at the current rung (see the class docstring)."""
        name = _rung_name(self.chain[self.index])
        self.value = math.nan
        self.pause_s = 0.0
        started = time.perf_counter()
        try:
            yield
            bad = _invalid_reason(self.value)
            if bad is not None:
                raise EstimatorUnavailable(f"rung {name} produced {bad}")
        # The fallback chain IS the handler of last resort: any rung
        # failure is recorded in the attempts and the next rung answers,
        # so catching everything here is the contract.
        except Exception as exc:  # repro-lint: disable=R005  # noqa: BLE001
            outcome = (
                "timeout" if isinstance(exc, EstimationTimeout)
                else "invalid-result" if isinstance(exc, EstimatorUnavailable)
                else "error"
            )
            self._record(name, outcome, f"{type(exc).__name__}: {exc}", started)
            self.error = exc
            if isinstance(exc, TransientEstimationError) and self._tries < self.retries:
                pause = self.backoff_s * 2**self._tries
                if pause <= 0 or self.deadline is None or pause < self.deadline.remaining:
                    self._tries += 1
                    self.pause_s = pause
                    return
            self._tries = 0
            self.index += 1
        else:
            self._record(name, "ok", "", started)
            self.value = float(self.value)
            self.error = None
            self._answered = True

    def _record(self, name: str, outcome: str, detail: str, started: float) -> None:
        self.attempts.append(
            AttemptRecord(
                name, self.index, self._tries + 1, outcome, detail,
                time.perf_counter() - started,
            )
        )

    @property
    def reason(self) -> str:
        """The first failure above the current rung — after the walk, why
        the rung that answered (or the zero floor) had to."""
        for a in self.attempts:
            if a.rung_index < self.index and a.outcome != "ok":
                return f"{a.rung} {a.outcome}: {a.detail}"
        return ""


def _backoff(pause_s: float) -> None:
    """Pay the retry pause a :class:`Descent` owes (sync callers only)."""
    if pause_s > 0:
        time.sleep(pause_s)


class ResilientEstimator(JoinSelectivityEstimator):
    """Budgeted, validated, always-answers wrapper over any estimator.

    Parameters
    ----------
    primary:
        An estimator instance, or a registry kind name (``"gh"``,
        ``"ph"``, ``"sampling"``, ...) built via ``create_estimator``
        with the extra keyword arguments.
    deadline_s:
        Per-call wall-clock budget shared by the whole fallback chain
        (``None`` = unbudgeted).  Enforced cooperatively at the
        checkpoints inside histogram builds and the sampling join.
    retries:
        Extra attempts per rung for *transient* faults only.
    backoff_s:
        Sleep before the first retry; doubles per subsequent retry.
    chain:
        Explicit fallback ladder (the primary is **not** implicitly
        prepended).  Defaults to :func:`default_fallback_chain`.
    validation:
        ``"repair"`` (default) fixes what it can and records it;
        ``"strict"`` raises :class:`InvalidDatasetError` on bad input
        instead of estimating.
    cache:
        Optional :class:`~repro.perf.cache.HistogramCache`.  When given,
        every histogram rung in the chain prepares its per-dataset
        summaries through the cache, so repeated calls against the same
        data stop rebuilding — each rung's histogram, the coarser GH
        fallback's included, is built once and then served from L1,
        equal to a cold build.  Builds performed while a fault hook is
        active are never cached, so fault-injection semantics are
        unchanged.
    tree_cache:
        Optional :class:`~repro.perf.cache.FlatTreeCache`.  Threaded
        into every sampling rung that runs the flat join engine (and
        does not already carry a cache of its own), so repeated calls
        against the same data reuse bulk-loaded sample trees the same
        way the histogram rungs reuse built histogram files.
    """

    name = "resilient"

    def __init__(
        self,
        primary: JoinSelectivityEstimator | str = "gh",
        *,
        deadline_s: float | None = None,
        retries: int = 1,
        backoff_s: float = 0.0,
        chain: Sequence[JoinSelectivityEstimator] | None = None,
        validation: str = "repair",
        cache: "HistogramCache | None" = None,
        tree_cache: "FlatTreeCache | None" = None,
        **primary_kwargs: object,
    ) -> None:
        if isinstance(primary, str):
            primary = create_estimator(primary, **primary_kwargs)
        elif primary_kwargs:
            raise ValueError("primary kwargs are only valid with a kind name")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if backoff_s < 0:
            raise ValueError(f"backoff_s must be >= 0, got {backoff_s}")
        self.primary = primary
        self.deadline_s = deadline_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.chain: tuple[JoinSelectivityEstimator, ...] = (
            tuple(chain) if chain is not None else default_fallback_chain(primary)
        )
        if not self.chain:
            raise ValueError("fallback chain must have at least one rung")
        self.cache = cache
        if cache is not None:
            from ..perf.cache import CachedEstimator  # service → perf, no cycle

            self.chain = tuple(CachedEstimator.wrap(rung, cache) for rung in self.chain)
        self.tree_cache = tree_cache
        if tree_cache is not None:
            for rung in self.chain:
                inner = getattr(rung, "inner", None)
                if (
                    isinstance(rung, SamplingEstimatorAdapter)
                    and inner is not None
                    and getattr(inner, "join_method", None) == "flat"
                    and getattr(inner, "tree_cache", None) is None
                ):
                    inner.tree_cache = tree_cache
        if validation not in VALIDATION_POLICIES:
            raise ValueError(
                f"unknown validation policy {validation!r}; "
                f"choose from {VALIDATION_POLICIES}"
            )
        self.validation = validation

    def __repr__(self) -> str:
        rungs = " -> ".join(_rung_name(r) for r in self.chain)
        return f"ResilientEstimator({rungs}, deadline_s={self.deadline_s})"

    # ------------------------------------------------------------------
    def estimate(self, ds1: SpatialDataset, ds2: SpatialDataset) -> float:
        """The resilient estimate (see :meth:`estimate_detailed`)."""
        return _warned(self._walk(ds1, ds2)).selectivity

    def estimate_detailed(
        self, ds1: SpatialDataset, ds2: SpatialDataset
    ) -> ResilientResult:
        """Validate, budget, retry, and degrade until an answer emerges.

        Never raises for malformed data, injected faults, corrupted
        statistics, or expired deadlines (under the default ``"repair"``
        policy; ``"strict"`` lets validation errors surface).  The
        returned selectivity is always finite and ``>= 0``.
        """
        return _warned(self._walk(ds1, ds2))

    def _walk(self, ds1: SpatialDataset, ds2: SpatialDataset) -> ResilientResult:
        ds1, ds2, report1, report2 = validate_pair(ds1, ds2, policy=self.validation)
        deadline = Deadline(self.deadline_s) if self.deadline_s is not None else None
        walk = Descent(
            self.chain, retries=self.retries, backoff_s=self.backoff_s, deadline=deadline
        )
        for rung in walk:
            _backoff(walk.pause_s)
            with walk.attempt(), runtime_scope(deadline=deadline):
                walk.value = rung.estimate(ds1, ds2)
        # Every rung failed (only reachable when even the closed-form
        # floor was rigged to fail): answer the defined-empty semantics
        # rather than surfacing an exception.
        answered = walk.error is None
        provenance = Provenance(
            rung=_rung_name(self.chain[walk.index]) if answered else "zero-floor",
            rung_index=walk.index,
            degraded=walk.index > 0 or report1.repaired or report2.repaired,
            attempts=tuple(walk.attempts),
            validation=(report1, report2),
            reason=walk.reason,
        )
        return ResilientResult(walk.value if answered else 0.0, provenance)


def _warned(result: ResilientResult) -> ResilientResult:
    """Warn when ``result`` is degraded, attributed to whoever called the
    public method (``estimate`` or ``estimate_detailed``) that calls this."""
    provenance = result.provenance
    if provenance.degraded:
        detail = f" ({provenance.reason})" if provenance.reason else ""
        warnings.warn(
            f"estimation degraded: answered by {provenance.rung}"
            f" at rung {provenance.rung_index}{detail}",
            DegradedResultWarning,
            stacklevel=3,
        )
    return result
