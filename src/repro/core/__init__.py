"""Core API: estimator interface/registry, catalog, metrics, optimizer."""

from .catalog import StatisticsCatalog, catalog_for
from .estimator import (
    ESTIMATOR_KINDS,
    BasicGHEstimator,
    GHEstimator,
    JoinSelectivityEstimator,
    ParametricEstimator,
    PHEstimator,
    PreparedEstimator,
    SamplingEstimatorAdapter,
    create_estimator,
)
from .matrix import pairwise_selectivities
from .metrics import MetricAccumulator, Timer, ratio_pct, relative_error_pct
from .optimizer import JoinPlan, optimize_join_order, plan_cardinality
from .workload import FIGURE6_COMBOS, FIGURE6_METHODS, FIGURE7_LEVELS, SampleCombo

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
    "StatisticsCatalog",
    "catalog_for",
    "pairwise_selectivities",
    "relative_error_pct",
    "ratio_pct",
    "Timer",
    "MetricAccumulator",
    "JoinPlan",
    "optimize_join_order",
    "plan_cardinality",
    "SampleCombo",
    "FIGURE6_COMBOS",
    "FIGURE6_METHODS",
    "FIGURE7_LEVELS",
]
