"""Predicate-aware selectivity estimators.

Every estimator family in the library gets a predicate-generalized rung:

* :class:`InflatedEstimator` — reduces the ε-distance join to an
  intersection join the existing GH/PH/parametric machinery already
  estimates: buffer *both* sides' rectangles by ε/2 (and the shared
  extent with them) and estimate the intersection selectivity of the
  buffered data.  Per axis, ``gap ≤ ε  ⟺  the two ε/2-buffered
  rectangles intersect``, so the reduction is exact for the L∞ distance
  and a (slightly over-counting) approximation of the L2 ε-join — the
  same corner overshoot the exact engines remove in their refinement
  stage.  ε = 0 skips the buffering entirely: the estimate is
  bit-identical to the wrapped estimator's.
* :class:`EndpointInequalityEstimator` — the arXiv 2206.07396 scheme:
  one :class:`~repro.histograms.EndpointHistogram` per side over the
  compared endpoint column.
* :class:`IntervalOverlapEstimator` — composes two endpoint histograms
  per side (interval starts and ends) through the complement identity
  ``P(overlap) = 1 − P(a.hi < b.lo) − P(b.hi < a.lo)``.
* :class:`ParametricIntervalEstimator` — the 1-D Aref–Samet closed
  form ``P ≈ (avg_span₁ + avg_span₂) / L`` (the x-projection of
  Equation 2): statistics-only, checkpoint-free, the fallback floor for
  the interval family.

Their fallback ladders are defined, with every other ladder, in
:func:`repro.service.resilient.default_fallback_chain`.
"""

from __future__ import annotations

from typing import Any, Tuple

from ..core.estimator import (
    JoinSelectivityEstimator,
    PreparedEstimator,
    SamplingEstimatorAdapter,
    create_estimator,
)
from ..datasets import SpatialDataset
from ..geometry import Rect
from ..histograms import EndpointHistogram
from .base import Inequality, Intersects, IntervalOverlap, JoinPredicate, WithinDistance

__all__ = [
    "InflatedEstimator",
    "EndpointInequalityEstimator",
    "IntervalOverlapEstimator",
    "ParametricIntervalEstimator",
    "predicate_of",
    "create_predicate_estimator",
]

#: Default bucket level for the 1-D endpoint histograms (64 buckets).
_DEFAULT_ENDPOINT_LEVEL = 6


def _axis_range(extent: Rect, axis: str) -> Tuple[float, float]:
    """The extent's coordinate range along ``"x"`` or ``"y"``."""
    if axis == "x":
        return extent.xmin, extent.xmax
    return extent.ymin, extent.ymax


class InflatedEstimator(PreparedEstimator):
    """Estimate the ε-distance join by buffering both sides by ε/2.

    Wraps any :class:`PreparedEstimator` (GH, PH, basic GH, parametric);
    the per-dataset summary is the inner estimator's summary of the
    buffered dataset over the ε/2-padded extent, so prepared statistics
    cache and combine exactly like the intersection ones do.
    """

    def __init__(self, inner: PreparedEstimator, eps: float) -> None:
        if not isinstance(inner, PreparedEstimator):
            raise TypeError(
                f"InflatedEstimator needs a PreparedEstimator, got {type(inner).__name__}"
            )
        self.predicate = WithinDistance(eps)  # validates eps
        self.inner = inner
        self.eps = float(eps)
        self.name = f"inflated_{inner.name}"

    @property
    def level(self) -> Any:
        """The wrapped estimator's gridding level (for provenance)."""
        return getattr(self.inner, "level", None)

    def prepare(self, dataset: SpatialDataset, *, extent: Rect | None = None) -> Any:
        """Inner summary of the ε/2-buffered dataset on the padded extent.

        ε = 0 delegates untouched — the prepared statistics (and hence
        the estimate) are bit-identical to the wrapped estimator's.
        """
        if self.eps == 0.0:
            return self.inner.prepare(dataset, extent=extent)
        margin = self.eps / 2.0
        base = extent if extent is not None else dataset.extent
        padded = base.buffer(margin)
        buffered = SpatialDataset(
            name=f"{dataset.name}+eps",
            rects=dataset.rects.inflate(margin),
            extent=padded,
        )
        return self.inner.prepare(buffered, extent=padded)

    def combine(self, prep1: Any, prep2: Any) -> float:
        """The inner combine formula on the buffered summaries."""
        return self.inner.combine(prep1, prep2)

    def memo_formula(self) -> "str | None":
        """Inner formula tagged with ε (ε = 0 *is* the inner combine)."""
        inner = self.inner.memo_formula()
        if inner is None:
            return None
        if self.eps == 0.0:
            return inner
        return f"inflated(eps={self.eps!r},{inner})"

    def __repr__(self) -> str:
        return f"InflatedEstimator({self.inner!r}, eps={self.eps})"


class EndpointInequalityEstimator(PreparedEstimator):
    """Inequality-join selectivity from two endpoint histograms."""

    name = "endpoint"

    def __init__(
        self,
        predicate: Inequality = Inequality(),
        *,
        level: int = _DEFAULT_ENDPOINT_LEVEL,
    ) -> None:
        if not isinstance(predicate, Inequality):
            raise TypeError(f"expected an Inequality predicate, got {predicate!r}")
        if level < 0:
            raise ValueError(f"level must be non-negative, got {level}")
        self.predicate = predicate
        self.level = level

    def prepare(
        self, dataset: SpatialDataset, *, extent: Rect | None = None
    ) -> EndpointHistogram:
        """Histogram the compared endpoint column over the extent's axis."""
        base = extent if extent is not None else dataset.extent
        axis = "x" if self.predicate.endpoint in ("xmin", "xmax") else "y"
        lo, hi = _axis_range(base, axis)
        return EndpointHistogram.build(
            self.predicate.values(dataset.rects), self.level, lo=lo, hi=hi
        )

    def combine(self, prep1: EndpointHistogram, prep2: EndpointHistogram) -> float:
        """The 2206.07396 bucket formula for this predicate's operator."""
        return prep1.estimate_inequality(prep2, self.predicate.op)

    def memo_formula(self) -> str:
        return f"endpoint({self.predicate.key},level={self.level})"

    def __repr__(self) -> str:
        return f"EndpointInequalityEstimator({self.predicate!r}, level={self.level})"


class IntervalOverlapEstimator(PreparedEstimator):
    """Interval-overlap selectivity from start/end endpoint histograms.

    ``P(overlap) = 1 − P(a.hi < b.lo) − P(b.hi < a.lo)`` — the two miss
    modes are disjoint, each estimated by the inequality formula on the
    corresponding (end, start) histogram pair; the result is clamped at
    zero (bucketing error can push the miss mass past one).
    """

    name = "interval"

    def __init__(
        self,
        predicate: IntervalOverlap = IntervalOverlap(),
        *,
        level: int = _DEFAULT_ENDPOINT_LEVEL,
    ) -> None:
        if not isinstance(predicate, IntervalOverlap):
            raise TypeError(f"expected an IntervalOverlap predicate, got {predicate!r}")
        if level < 0:
            raise ValueError(f"level must be non-negative, got {level}")
        self.predicate = predicate
        self.level = level

    def prepare(
        self, dataset: SpatialDataset, *, extent: Rect | None = None
    ) -> Tuple[EndpointHistogram, EndpointHistogram]:
        """A ``(starts, ends)`` histogram pair over the extent's axis."""
        base = extent if extent is not None else dataset.extent
        axis = self.predicate.axis
        lo, hi = _axis_range(base, axis)
        rects = dataset.rects
        starts = rects.xmin if axis == "x" else rects.ymin
        ends = rects.xmax if axis == "x" else rects.ymax
        return (
            EndpointHistogram.build(starts, self.level, lo=lo, hi=hi),
            EndpointHistogram.build(ends, self.level, lo=lo, hi=hi),
        )

    def combine(
        self,
        prep1: Tuple[EndpointHistogram, EndpointHistogram],
        prep2: Tuple[EndpointHistogram, EndpointHistogram],
    ) -> float:
        """One minus the two (disjoint) miss probabilities, clamped at 0."""
        a_lo, a_hi = prep1
        b_lo, b_hi = prep2
        miss = a_hi.estimate_inequality(b_lo, "lt") + b_hi.estimate_inequality(a_lo, "lt")
        return max(0.0, 1.0 - miss)

    def memo_formula(self) -> str:
        return f"interval({self.predicate.key},level={self.level})"

    def __repr__(self) -> str:
        return f"IntervalOverlapEstimator({self.predicate!r}, level={self.level})"


class ParametricIntervalEstimator(PreparedEstimator):
    """The 1-D Aref–Samet closed form: ``P ≈ (s̄₁ + s̄₂) / L``.

    The x- (or y-) projection of the paper's Equation 2: two intervals
    of average spans ``s̄₁``, ``s̄₂`` dropped uniformly in a universe of
    length ``L`` overlap with probability about ``(s̄₁ + s̄₂) / L``
    (clamped to 1).  Statistics-only and checkpoint-free — the interval
    family's fallback floor, the way the 2-D parametric form floors the
    intersection chains.
    """

    name = "interval_parametric"

    def __init__(self, predicate: IntervalOverlap = IntervalOverlap()) -> None:
        if not isinstance(predicate, IntervalOverlap):
            raise TypeError(f"expected an IntervalOverlap predicate, got {predicate!r}")
        self.predicate = predicate

    def prepare(
        self, dataset: SpatialDataset, *, extent: Rect | None = None
    ) -> Tuple[float, float]:
        """Per-dataset summary: ``(average span, universe length)``."""
        base = extent if extent is not None else dataset.extent
        lo, hi = _axis_range(base, self.predicate.axis)
        rects = dataset.rects
        spans = rects.widths() if self.predicate.axis == "x" else rects.heights()
        avg = float(spans.mean()) if len(rects) else 0.0
        return avg, hi - lo

    def combine(self, prep1: Tuple[float, float], prep2: Tuple[float, float]) -> float:
        """``min(1, (s̄₁ + s̄₂) / L)`` (degenerate zero-length universe → 1)."""
        length = prep1[1]
        if length <= 0.0:
            return 1.0
        return min(1.0, (prep1[0] + prep2[0]) / length)

    def memo_formula(self) -> str:
        return f"interval_parametric({self.predicate.key})"

    def __repr__(self) -> str:
        return f"ParametricIntervalEstimator({self.predicate!r})"


# ----------------------------------------------------------------------
# Registry integration
# ----------------------------------------------------------------------

def predicate_of(estimator: JoinSelectivityEstimator) -> JoinPredicate | None:
    """The predicate an estimator targets, or None for plain intersects.

    Looks at the estimator itself and one adapter layer down (the
    sampling adapter keeps its configuration on ``.inner``).
    """
    predicate = getattr(estimator, "predicate", None)
    if predicate is None:
        predicate = getattr(getattr(estimator, "inner", None), "predicate", None)
    if isinstance(predicate, JoinPredicate) and not isinstance(predicate, Intersects):
        return predicate
    return None


def create_predicate_estimator(
    kind: str, predicate: JoinPredicate, **kwargs: Any
) -> JoinSelectivityEstimator:
    """Instantiate an estimator of registry ``kind`` targeting ``predicate``.

    ``Intersects`` routes straight to :func:`repro.core.create_estimator`;
    ``"sampling"`` handles every predicate natively (the sample join runs
    the predicate's exact engine); the histogram kinds are wrapped
    (ε-distance) or replaced by the matching 1-D scheme (inequality /
    interval, where ``kind="parametric"`` selects the closed-form floor).
    """
    if isinstance(predicate, Intersects):
        return create_estimator(kind, **kwargs)
    if kind == "sampling":
        return SamplingEstimatorAdapter(predicate=predicate, **kwargs)
    if isinstance(predicate, WithinDistance):
        inner = create_estimator(kind, **kwargs)
        if not isinstance(inner, PreparedEstimator):
            raise ValueError(f"estimator kind {kind!r} cannot be inflated")
        return InflatedEstimator(inner, predicate.eps)
    level = int(kwargs.pop("level", _DEFAULT_ENDPOINT_LEVEL))
    if kwargs:
        raise ValueError(
            f"unsupported kwargs for 1-D predicate estimators: {sorted(kwargs)}"
        )
    if isinstance(predicate, Inequality):
        if kind == "parametric":
            return EndpointInequalityEstimator(predicate, level=0)
        return EndpointInequalityEstimator(predicate, level=level)
    if isinstance(predicate, IntervalOverlap):
        if kind == "parametric":
            return ParametricIntervalEstimator(predicate)
        return IntervalOverlapEstimator(predicate, level=level)
    raise ValueError(f"no estimator family for predicate {predicate.key!r}")
