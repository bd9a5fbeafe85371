"""Geometric predicates and the intersection-point decomposition.

Besides the plain intersection predicates, this module implements the
observation at the heart of the paper's Geometric Histogram (GH) scheme
(Section 3.2, Figure 2): *whenever two MBRs intersect, the intersection
is a rectangle with exactly four corners* ("intersecting points"), and
each such point arises in exactly one of two ways:

(a) a corner of one MBR falls inside the other MBR, or
(b) a horizontal edge of one MBR crosses a vertical edge of the other.

:func:`classify_intersection_points` computes this decomposition exactly
for a pair of rectangles, and is used by the tests to verify the paper's
Figure 2 case analysis (the counts always sum to 4 for properly
overlapping rectangles).

Distance and interval predicates
--------------------------------
The ε-distance and interval-overlap joins (:mod:`repro.predicates`) are
grounded here, with *closed* boundary semantics matching the closed
rectangle intersection used everywhere else:

* two rectangles whose minimum L2 distance is **exactly ε** are within
  distance ε (and ε = 0 is exactly the closed intersection test);
* two intervals that merely **share an endpoint** overlap.

Every join engine and estimator must route its boundary decisions
through these functions (or reproduce their float expressions exactly);
the table-driven suite in ``tests/predicates/edge_cases.py`` pins all of
them to the same answers.  Within-distance comparisons are made on
*squared* distances (``dx*dx + dy*dy <= eps*eps``): no square root is
taken, so the ε = 0 case degenerates to ``dx == 0 and dy == 0`` — the
closed intersection test — bit for bit, and exactly-representable
boundary cases (e.g. the 3-4-5 gap at ε = 5) stay exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rect import Rect
from .rectarray import RectArray

__all__ = [
    "rects_intersect",
    "intersection_rect",
    "intersection_points",
    "IntersectionPointBreakdown",
    "classify_intersection_points",
    "count_corner_containments",
    "count_edge_crossings",
    "pairwise_intersection_mask",
    "min_distance",
    "rects_within_distance",
    "intervals_overlap",
    "pairwise_gap_squared",
    "pairwise_within_distance_mask",
    "pairwise_interval_overlap_mask",
]


def rects_intersect(a: Rect, b: Rect) -> bool:
    """Closed-interval rectangle intersection test."""
    return a.intersects(b)


def _axis_gap(lo1: float, hi1: float, lo2: float, hi2: float) -> float:
    """Separation between closed intervals (0 when they overlap or touch)."""
    return max(0.0, lo1 - hi2, lo2 - hi1)


def min_distance(a: Rect, b: Rect) -> float:
    """Minimum L2 distance between two closed rectangles.

    Zero iff the rectangles intersect (touching counts).  Computed as
    ``hypot(dx, dy)`` of the per-axis separations; for boundary
    *decisions* use :func:`rects_within_distance`, which compares squared
    distances instead and therefore agrees bit-for-bit with the
    vectorized engine masks.
    """
    return math.hypot(
        _axis_gap(a.xmin, a.xmax, b.xmin, b.xmax),
        _axis_gap(a.ymin, a.ymax, b.ymin, b.ymax),
    )


def rects_within_distance(a: Rect, b: Rect, eps: float) -> bool:
    """True iff the minimum distance between ``a`` and ``b`` is ≤ ``eps``.

    Closed semantics: a pair at distance *exactly* ε qualifies, and
    ε = 0 reduces to the closed intersection test (``dx == dy == 0``).
    The comparison is ``dx² + dy² <= ε²`` — the exact float expression
    every vectorized engine uses — so scalar and bulk answers can never
    disagree on a boundary pair.
    """
    if not eps >= 0.0:
        raise ValueError(f"eps must be a non-negative number, got {eps!r}")
    dx = _axis_gap(a.xmin, a.xmax, b.xmin, b.xmax)
    dy = _axis_gap(a.ymin, a.ymax, b.ymin, b.ymax)
    return dx * dx + dy * dy <= eps * eps


def intervals_overlap(lo1: float, hi1: float, lo2: float, hi2: float) -> bool:
    """Closed 1-D interval overlap: intervals sharing an endpoint overlap.

    The 1-D projection of the closed rectangle intersection — the
    boundary contract for the interval-overlap join.
    """
    return lo1 <= hi2 and lo2 <= hi1


def pairwise_gap_squared(a: RectArray, b: RectArray) -> np.ndarray:
    """Dense ``(len(a), len(b))`` squared minimum L2 distances.

    Zero where pairs intersect (closed).  Memory is Θ(len(a) · len(b));
    intended for small inputs — the naive predicate oracle blocks its
    calls (:mod:`repro.predicates.joins`).
    """
    dx = np.maximum(
        np.maximum(a.xmin[:, None] - b.xmax[None, :], b.xmin[None, :] - a.xmax[:, None]),
        0.0,
    )
    dy = np.maximum(
        np.maximum(a.ymin[:, None] - b.ymax[None, :], b.ymin[None, :] - a.ymax[:, None]),
        0.0,
    )
    return dx * dx + dy * dy


def pairwise_within_distance_mask(a: RectArray, b: RectArray, eps: float) -> np.ndarray:
    """Dense boolean mask of pairs within (closed) L2 distance ``eps``."""
    if not eps >= 0.0:
        raise ValueError(f"eps must be a non-negative number, got {eps!r}")
    return pairwise_gap_squared(a, b) <= eps * eps


def pairwise_interval_overlap_mask(a: RectArray, b: RectArray, axis: str = "x") -> np.ndarray:
    """Dense boolean mask of closed 1-D interval overlaps along ``axis``."""
    if axis == "x":
        lo_a, hi_a, lo_b, hi_b = a.xmin, a.xmax, b.xmin, b.xmax
    elif axis == "y":
        lo_a, hi_a, lo_b, hi_b = a.ymin, a.ymax, b.ymin, b.ymax
    else:
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    return (lo_a[:, None] <= hi_b[None, :]) & (lo_b[None, :] <= hi_a[:, None])


def intersection_rect(a: Rect, b: Rect) -> Rect | None:
    """The intersection rectangle (or ``None``)."""
    return a.intersection(b)


def intersection_points(a: Rect, b: Rect) -> tuple[tuple[float, float], ...]:
    """The four corners of the intersection rectangle (empty tuple if disjoint)."""
    inter = a.intersection(b)
    if inter is None:
        return ()
    return inter.corners()


def _point_strictly_inside(rect: Rect, x: float, y: float) -> bool:
    return rect.xmin < x < rect.xmax and rect.ymin < y < rect.ymax


def count_corner_containments(a: Rect, b: Rect) -> int:
    """Number of corners of ``a`` strictly inside ``b`` plus corners of
    ``b`` strictly inside ``a`` (GH intersection-point source (a))."""
    count = 0
    for x, y in a.corners():
        if _point_strictly_inside(b, x, y):
            count += 1
    for x, y in b.corners():
        if _point_strictly_inside(a, x, y):
            count += 1
    return count


def _open_overlap(lo1: float, hi1: float, lo2: float, hi2: float) -> bool:
    """True if the open intervals ``(lo1, hi1)`` and ``(lo2, hi2)`` overlap."""
    return max(lo1, lo2) < min(hi1, hi2)


def count_edge_crossings(a: Rect, b: Rect) -> int:
    """Number of proper crossings between a horizontal edge of one MBR
    and a vertical edge of the other (GH intersection-point source (b)).

    A horizontal edge at height ``y`` spanning ``[x0, x1]`` *properly
    crosses* a vertical edge at abscissa ``x`` spanning ``[y0, y1]`` when
    ``x0 < x < x1`` and ``y0 < y < y1``.
    """
    count = 0
    for h_owner, v_owner in ((a, b), (b, a)):
        for y in (h_owner.ymin, h_owner.ymax):
            for x in (v_owner.xmin, v_owner.xmax):
                if h_owner.xmin < x < h_owner.xmax and v_owner.ymin < y < v_owner.ymax:
                    count += 1
    return count


@dataclass(frozen=True, slots=True)
class IntersectionPointBreakdown:
    """Exact decomposition of a pair's intersection points.

    For two rectangles in *general position* (no shared edge coordinates)
    that properly overlap, ``corner_points + crossing_points == 4`` — the
    invariant behind GH's "divide by four" step.
    """

    corner_points: int
    crossing_points: int

    @property
    def total(self) -> int:
        return self.corner_points + self.crossing_points


def classify_intersection_points(a: Rect, b: Rect) -> IntersectionPointBreakdown:
    """Decompose the intersection points of ``a`` and ``b`` by their source."""
    return IntersectionPointBreakdown(
        corner_points=count_corner_containments(a, b),
        crossing_points=count_edge_crossings(a, b),
    )


def pairwise_intersection_mask(a: RectArray, b: RectArray) -> np.ndarray:
    """Dense ``(len(a), len(b))`` boolean intersection matrix.

    Memory is Θ(len(a) · len(b)); intended for small inputs (tests and
    the blocks of the naive predicate oracle).  Larger joins should use
    :mod:`repro.join`.
    """
    return (
        (a.xmin[:, None] <= b.xmax[None, :])
        & (b.xmin[None, :] <= a.xmax[:, None])
        & (a.ymin[:, None] <= b.ymax[None, :])
        & (b.ymin[None, :] <= a.ymax[:, None])
    )
