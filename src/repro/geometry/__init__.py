"""Geometry kernel: rectangles, bulk rectangle arrays, predicates, extents.

Everything in the library is built on axis-parallel rectangles (MBRs);
this package is the lowest layer of the substrate.
"""

from .extent import NormalizationTransform, common_extent, normalize_to_unit, pad_extent
from .predicates import (
    IntersectionPointBreakdown,
    classify_intersection_points,
    count_corner_containments,
    count_edge_crossings,
    intersection_points,
    intersection_rect,
    intervals_overlap,
    min_distance,
    pairwise_gap_squared,
    pairwise_intersection_mask,
    pairwise_interval_overlap_mask,
    pairwise_within_distance_mask,
    rects_intersect,
    rects_within_distance,
)
from .rect import Rect
from .rectarray import RectArray

__all__ = [
    "Rect",
    "RectArray",
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
    "common_extent",
    "pad_extent",
    "normalize_to_unit",
    "NormalizationTransform",
]
