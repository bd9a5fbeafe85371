"""Predicate diversity: join conditions beyond MBR intersection.

The paper studies one join predicate — MBR *intersection*.  This package
generalizes the pipeline to a typed predicate algebra (ε-distance,
interval overlap, endpoint inequality) with, for every predicate:

* an exact naive oracle (:func:`naive_predicate_count` /
  :func:`naive_predicate_pairs`) grounded in the predicate's own dense
  ``pair_mask``;
* specialized exact engines (:mod:`repro.predicates.joins`) —
  MBR-inflation + refinement for the ε-join, y-flattening for the
  interval join, endpoint sort for the inequality join — all obeying the
  library's pair-ordering contract;
* estimators (:mod:`repro.predicates.estimators`) plugged into the
  prepared/resilient/sampling machinery.

The four accuracy gates (differential engine matrix, metamorphic
invariance suite, hypothesis naive-oracle properties, golden corpus) all
parameterize over :data:`STANDARD_PREDICATES`.
"""

from .base import (
    AXES,
    ENDPOINTS,
    INEQUALITY_OPS,
    STANDARD_PREDICATES,
    Inequality,
    Intersects,
    IntervalOverlap,
    JoinPredicate,
    WithinDistance,
    predicate_from_key,
)
from .estimators import (
    EndpointInequalityEstimator,
    InflatedEstimator,
    IntervalOverlapEstimator,
    ParametricIntervalEstimator,
    create_predicate_estimator,
    predicate_of,
)
from .joins import (
    epsilon_join_count,
    epsilon_join_pairs,
    inequality_join_count,
    inequality_join_pairs,
    interval_join_count,
    interval_join_pairs,
    naive_predicate_count,
    naive_predicate_pairs,
    predicate_join_count,
    predicate_join_pairs,
    predicate_selectivity,
    supported_join_methods,
)

__all__ = [
    "JoinPredicate",
    "Intersects",
    "WithinDistance",
    "IntervalOverlap",
    "Inequality",
    "AXES",
    "ENDPOINTS",
    "INEQUALITY_OPS",
    "STANDARD_PREDICATES",
    "predicate_from_key",
    "supported_join_methods",
    "predicate_join_count",
    "predicate_join_pairs",
    "predicate_selectivity",
    "naive_predicate_count",
    "naive_predicate_pairs",
    "epsilon_join_count",
    "epsilon_join_pairs",
    "interval_join_count",
    "interval_join_pairs",
    "inequality_join_count",
    "inequality_join_pairs",
    "InflatedEstimator",
    "EndpointInequalityEstimator",
    "IntervalOverlapEstimator",
    "ParametricIntervalEstimator",
    "predicate_of",
    "create_predicate_estimator",
]
