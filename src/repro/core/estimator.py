"""Unified estimator interface and registry.

Every technique in the paper is exposed behind one protocol —
:class:`JoinSelectivityEstimator` with a single
``estimate(ds1, ds2) -> float`` method — plus, for the precomputable
techniques (parametric, PH, GH), a two-phase
:class:`PreparedEstimator` variant whose per-dataset ``prepare`` output
can be cached in a :class:`~repro.core.catalog.StatisticsCatalog` and
combined later, the way a query optimizer would consult statistics
built at load time.

``create_estimator`` builds estimators by name::

    create_estimator("gh", level=7)
    create_estimator("sampling", method="rswr", fraction1=0.1, fraction2=0.1)
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Callable, Dict

from ..datasets import SpatialDataset
from ..geometry import Rect

if TYPE_CHECKING:
    from ..perf.memo import EstimateCache
from ..histograms import (
    BasicGHHistogram,
    GHHistogram,
    PHHistogram,
    aref_samet_selectivity,
)
from ..sampling import SamplingJoinEstimator

__all__ = [
    "JoinSelectivityEstimator",
    "PreparedEstimator",
    "ParametricEstimator",
    "PHEstimator",
    "GHEstimator",
    "BasicGHEstimator",
    "SamplingEstimatorAdapter",
    "ESTIMATOR_KINDS",
    "create_estimator",
]


class JoinSelectivityEstimator(ABC):
    """Anything that can guess the selectivity of a spatial join."""

    #: Short machine name (used in reports and the registry).
    name: str = "abstract"

    @abstractmethod
    def estimate(self, ds1: SpatialDataset, ds2: SpatialDataset) -> float:
        """Estimated selectivity in ``[0, ∞)`` (estimates may overshoot 1)."""

    def estimate_pairs(self, ds1: SpatialDataset, ds2: SpatialDataset) -> float:
        """Estimated join result *size* (selectivity × |DS1| × |DS2|).

        A join with an empty side has exactly zero result pairs, so the
        empty case is answered directly (``0.0``) without consulting the
        estimator — every estimator kind shares this semantics.
        """
        if len(ds1) == 0 or len(ds2) == 0:
            return 0.0
        return self.estimate(ds1, ds2) * len(ds1) * len(ds2)


class PreparedEstimator(JoinSelectivityEstimator):
    """Two-phase estimator: per-dataset statistics, then cheap combine."""

    #: Optional tier-0 :class:`~repro.perf.memo.EstimateCache`.  When
    #: set (instance or class level) and :meth:`memo_formula` names the
    #: combine, :meth:`estimate` answers warm repeats from the memo —
    #: bit-identical by construction, since prepare/combine are pure
    #: functions of (geometry, formula, extent).
    memo: "EstimateCache | None" = None

    @abstractmethod
    def prepare(self, dataset: SpatialDataset, *, extent: Rect | None = None) -> Any:
        """Build the per-dataset summary (histogram file, statistics...)."""

    @abstractmethod
    def combine(self, prep1: Any, prep2: Any) -> float:
        """Estimate selectivity from two prepared summaries."""

    def memo_formula(self) -> "str | None":
        """The memo's combine label, or None to opt out of memoization.

        Must name every parameter that changes the estimate (scheme,
        level, corrections, ε...), and must match the label other
        producers use for the same combine (see
        :func:`repro.perf.memo.scheme_formula`) so entries interoperate
        across ``estimate``, ``estimate_many``, and the serving fast
        lane.  Subclasses opt in; the default None keeps unknown
        estimators safely unmemoized.
        """
        return None

    def estimate(self, ds1: SpatialDataset, ds2: SpatialDataset) -> float:
        """One-shot estimate: prepare both sides on the shared extent, combine.

        An empty side short-circuits to ``0.0`` (the selectivity of a
        join with no pairs is defined as zero) — no statistics are built
        and no combine formula risks dividing by a zero cardinality.
        With a :attr:`memo` attached, a warm repeat of the same
        (geometry, formula, extent) returns the memoized float without
        preparing either side.
        """
        extent = _shared_extent(ds1, ds2)
        if len(ds1) == 0 or len(ds2) == 0:
            return 0.0
        memo = self.memo
        key = None
        if memo is not None:
            formula = self.memo_formula()
            if formula is not None:
                key = memo.key_for(ds1, ds2, formula, extent)
                cached = memo.get(key)
                if cached is not None:
                    return cached
        value = self.combine(
            self.prepare(ds1, extent=extent), self.prepare(ds2, extent=extent)
        )
        if key is not None:
            memo.put(key, value)
        return value


def _shared_extent(ds1: SpatialDataset, ds2: SpatialDataset) -> Rect:
    if ds1.extent != ds2.extent:
        raise ValueError(
            f"datasets {ds1.name!r} and {ds2.name!r} must share a common extent"
        )
    return ds1.extent


class ParametricEstimator(PreparedEstimator):
    """The Aref–Samet closed-form baseline (Equations 1–2)."""

    name = "parametric"

    def prepare(self, dataset: SpatialDataset, *, extent: Rect | None = None):
        """Per-dataset summary: the four Equation 1 parameters."""
        if extent is not None and extent != dataset.extent:
            dataset = dataset.with_extent(extent)
        return dataset.summary()

    def combine(self, prep1, prep2) -> float:
        """Equation 2 from two prepared summaries."""
        return aref_samet_selectivity(prep1, prep2)

    def memo_formula(self) -> str:
        """Closed-form label — no level parameter to encode."""
        return "parametric"


class PHEstimator(PreparedEstimator):
    """The Parametric Histogram scheme at a fixed gridding level."""

    name = "ph"

    def __init__(self, level: int = 5, *, span_correction: bool = True) -> None:
        self.level = level
        self.span_correction = span_correction

    def prepare(self, dataset: SpatialDataset, *, extent: Rect | None = None) -> PHHistogram:
        """Build the PH histogram file for one dataset."""
        return PHHistogram.build(dataset, self.level, extent=extent)

    def combine(self, prep1: PHHistogram, prep2: PHHistogram) -> float:
        """Equation 3 from two histogram files."""
        return prep1.estimate_selectivity(prep2, span_correction=self.span_correction)

    def memo_formula(self) -> str:
        """PH label; the span-corrected default shares the batched
        scheme label (``scheme_formula("ph", level)``) and the ablation
        variant is tagged distinctly."""
        if self.span_correction:
            return f"ph(level={self.level})"
        return f"ph(level={self.level},span=0)"

    def __repr__(self) -> str:
        return f"PHEstimator(level={self.level})"


class GHEstimator(PreparedEstimator):
    """The Geometric Histogram scheme at a fixed gridding level."""

    name = "gh"

    def __init__(self, level: int = 7) -> None:
        self.level = level

    def prepare(self, dataset: SpatialDataset, *, extent: Rect | None = None) -> GHHistogram:
        """Build the GH histogram file for one dataset."""
        return GHHistogram.build(dataset, self.level, extent=extent)

    def combine(self, prep1: GHHistogram, prep2: GHHistogram) -> float:
        """Equation 5 from two histogram files."""
        return prep1.estimate_selectivity(prep2)

    def memo_formula(self) -> str:
        """GH label, interoperable with ``scheme_formula("gh", level)``."""
        return f"gh(level={self.level})"

    def __repr__(self) -> str:
        return f"GHEstimator(level={self.level})"


class BasicGHEstimator(PreparedEstimator):
    """The count-based basic GH (Equation 4) — ablation baseline."""

    name = "gh_basic"

    def __init__(self, level: int = 7) -> None:
        self.level = level

    def prepare(
        self, dataset: SpatialDataset, *, extent: Rect | None = None
    ) -> BasicGHHistogram:
        """Build the basic-GH count histogram for one dataset."""
        return BasicGHHistogram.build(dataset, self.level, extent=extent)

    def combine(self, prep1: BasicGHHistogram, prep2: BasicGHHistogram) -> float:
        """Equation 4 from two count histograms."""
        return prep1.estimate_selectivity(prep2)

    def memo_formula(self) -> str:
        """Basic-GH label (``scheme_formula("gh_basic", level)``)."""
        return f"gh_basic(level={self.level})"

    def __repr__(self) -> str:
        return f"BasicGHEstimator(level={self.level})"


class SamplingEstimatorAdapter(JoinSelectivityEstimator):
    """Adapter giving :class:`~repro.sampling.SamplingJoinEstimator` the
    common interface (sampling is inherently pair-at-a-time, not
    two-phase: the scale-up depends on both fractions)."""

    name = "sampling"

    def __init__(self, **kwargs: Any) -> None:
        self.inner = SamplingJoinEstimator(**kwargs)

    def estimate(self, ds1: SpatialDataset, ds2: SpatialDataset) -> float:
        """Delegate to the wrapped sampling estimator."""
        return self.inner.estimate(ds1, ds2)

    def __repr__(self) -> str:
        return f"SamplingEstimatorAdapter({self.inner!r})"


ESTIMATOR_KINDS: Dict[str, Callable[..., JoinSelectivityEstimator]] = {
    "parametric": ParametricEstimator,
    "ph": PHEstimator,
    "gh": GHEstimator,
    "gh_basic": BasicGHEstimator,
    "sampling": SamplingEstimatorAdapter,
}


def create_estimator(kind: str, **kwargs: Any) -> JoinSelectivityEstimator:
    """Instantiate an estimator by registry name."""
    try:
        factory = ESTIMATOR_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown estimator kind {kind!r}; choose from {sorted(ESTIMATOR_KINDS)}"
        ) from None
    return factory(**kwargs)
