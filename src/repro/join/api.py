"""Unified entry points for exact spatial joins.

``join_count`` / ``join_pairs`` dispatch across the four exact engines
(nested loop, plane sweep, PBSM, and the R-tree join — STR-packed flat
trees joined by :func:`~repro.rtree.flat_join_count`); ``actual_selectivity``
computes the ground-truth selectivity every estimator in the library is
scored against:

    selectivity(A, B) = |{(a, b) : a intersects b}| / (|A| * |B|)

**Ordering contract.**  Every ``*_pairs`` engine returns a unique
``(k, 2)`` ``int64`` array sorted lexicographically by
``(a_id, b_id)`` — ids index the original inputs.  Engines are
therefore directly comparable with ``np.array_equal``; the contract is
pinned by ``tests/join/test_ordering_contract.py``.

**Predicates.**  ``predicate=`` joins under a non-default
:class:`~repro.predicates.JoinPredicate` (ε-distance, interval overlap,
endpoint inequality) by delegating to the predicate engines in
:mod:`repro.predicates.joins`.  ``method`` maps across (``nested`` →
the blocked naive oracle, ``sweep`` → the sort-based engine, ``auto`` →
the predicate's preferred engine); the ``partition`` and ``rtree``
engines are intersection-specialized and raise ``ValueError`` when
combined with a non-default predicate.  ``predicate=None`` (or
``Intersects()``) leaves every existing path untouched.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Literal

import numpy as np

from ..geometry import RectArray
from ..rtree import flat_join_count, flat_join_pairs, flat_load_str
from .naive import nested_loop_count, nested_loop_pairs
from .partition import partition_join_count, partition_join_pairs
from .planesweep import plane_sweep_count, plane_sweep_pairs

if TYPE_CHECKING:
    from ..predicates.base import JoinPredicate

__all__ = ["JoinMethod", "join_count", "join_pairs", "actual_selectivity"]

JoinMethod = Literal["auto", "nested", "sweep", "partition", "rtree"]

#: Below this total input size the nested loop wins on setup cost.
_SMALL_INPUT = 512

#: JoinMethod → predicate-engine name, for the ``predicate=`` delegation.
_PREDICATE_METHODS = {"auto": "auto", "nested": "naive", "sweep": "sweep"}


def _predicate_requested(predicate: "JoinPredicate | None") -> bool:
    return predicate is not None and predicate.key != "intersects"


def _predicate_method(method: JoinMethod, predicate: "JoinPredicate") -> str:
    if method not in ("auto", "nested", "sweep", "partition", "rtree"):
        raise ValueError(f"unknown join method {method!r}")
    try:
        return _PREDICATE_METHODS[method]
    except KeyError:
        raise ValueError(
            f"join method {method!r} is intersection-specialized and cannot "
            f"run predicate {predicate.key!r}; use one of "
            f"{tuple(sorted(_PREDICATE_METHODS))}"
        ) from None


def join_count(
    a: RectArray,
    b: RectArray,
    *,
    method: JoinMethod = "auto",
    predicate: "JoinPredicate | None" = None,
) -> int:
    """Exact number of pairs between ``a`` and ``b`` (intersecting by
    default; under ``predicate`` when one is given)."""
    if _predicate_requested(predicate) and predicate is not None:
        from ..predicates.joins import predicate_join_count

        return predicate_join_count(
            a, b, predicate, method=_predicate_method(method, predicate)
        )
    method = _resolve(a, b, method)
    if method == "nested":
        return nested_loop_count(a, b)
    if method == "sweep":
        return plane_sweep_count(a, b)
    if method == "partition":
        return partition_join_count(a, b)
    return flat_join_count(flat_load_str(a), flat_load_str(b))


def join_pairs(
    a: RectArray,
    b: RectArray,
    *,
    method: JoinMethod = "auto",
    predicate: "JoinPredicate | None" = None,
) -> np.ndarray:
    """All qualifying pairs, lexicographically sorted ``(k, 2)`` id array."""
    if _predicate_requested(predicate) and predicate is not None:
        from ..predicates.joins import predicate_join_pairs

        return predicate_join_pairs(
            a, b, predicate, method=_predicate_method(method, predicate)
        )
    method = _resolve(a, b, method)
    if method == "nested":
        return nested_loop_pairs(a, b)
    if method == "sweep":
        return plane_sweep_pairs(a, b)
    if method == "partition":
        return partition_join_pairs(a, b)
    return flat_join_pairs(flat_load_str(a), flat_load_str(b))


def actual_selectivity(
    a: RectArray,
    b: RectArray,
    *,
    method: JoinMethod = "auto",
    predicate: "JoinPredicate | None" = None,
) -> float:
    """Ground-truth join selectivity (0 for empty inputs)."""
    if len(a) == 0 or len(b) == 0:
        return 0.0
    return join_count(a, b, method=method, predicate=predicate) / (len(a) * len(b))


def _resolve(a: RectArray, b: RectArray, method: JoinMethod) -> JoinMethod:
    if method not in ("auto", "nested", "sweep", "partition", "rtree"):
        raise ValueError(f"unknown join method {method!r}")
    if method != "auto":
        return method
    if len(a) + len(b) <= _SMALL_INPUT:
        return "nested"
    return "partition"
