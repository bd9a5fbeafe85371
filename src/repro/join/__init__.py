"""Exact spatial-join engines (the estimators' ground truth).

Three interchangeable exact algorithms — blocked nested loop, plane
sweep, and the R-tree synchronized-traversal join — all producing
identical results (cross-checked in the test suite).
"""

from .api import JoinMethod, actual_selectivity, join_count, join_pairs
from .naive import nested_loop_count, nested_loop_pairs
from .planesweep import plane_sweep_count, plane_sweep_pairs

__all__ = [
    "JoinMethod",
    "join_count",
    "join_pairs",
    "actual_selectivity",
    "nested_loop_count",
    "nested_loop_pairs",
    "plane_sweep_count",
    "plane_sweep_pairs",
]
