"""Unified entry points for exact spatial joins.

``join_count`` / ``join_pairs`` dispatch across the three exact engines
(nested loop, plane sweep, and the R-tree join — STR-packed flat trees
joined by :func:`~repro.rtree.flat_join_count`); ``actual_selectivity``
computes the ground-truth selectivity every estimator in the library is
scored against:

    selectivity(A, B) = |{(a, b) : a intersects b}| / (|A| * |B|)

**Ordering contract.**  Every ``*_pairs`` engine returns a unique
``(k, 2)`` ``int64`` array sorted lexicographically by
``(a_id, b_id)`` — ids index the original inputs
(:func:`canonical_pair_order`).  Engines are therefore directly
comparable with ``np.array_equal``; the contract is pinned by
``tests/join/test_ordering_contract.py``.

**At scale.**  Above ``_SMALL_INPUT`` rectangles ``auto`` runs the
R-tree join, the paper's own exact join (:func:`rtree_join_count`); the
predicate engines' ``flat`` method builds its trees here too.

**Predicates.**  ``predicate=`` joins under a non-default
:class:`~repro.predicates.JoinPredicate` (ε-distance, interval overlap,
endpoint inequality) by delegating to the predicate engines in
:mod:`repro.predicates.joins`.  ``method`` maps across (``nested`` →
the blocked naive oracle, ``sweep`` → the sort-based engine, ``auto`` →
the predicate's preferred engine); the ``rtree`` engine is
intersection-specialized and raises ``ValueError`` when combined with a
non-default predicate.  ``predicate=None`` (or
``Intersects()``) leaves every existing path untouched.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Literal, get_args

import numpy as np

from ..geometry import RectArray
from ..rtree import flat_join_count, flat_join_pairs, flat_load_str
from .naive import nested_loop_count, nested_loop_pairs
from .planesweep import plane_sweep_count, plane_sweep_pairs

if TYPE_CHECKING:
    from ..predicates.base import JoinPredicate

__all__ = [
    "JoinMethod",
    "join_count",
    "join_pairs",
    "actual_selectivity",
    "canonical_pair_order",
    "rtree_join_count",
    "rtree_join_pairs",
]

JoinMethod = Literal["auto", "nested", "sweep", "rtree"]

_METHODS = get_args(JoinMethod)

#: Below this total input size the nested loop wins on setup cost.
_SMALL_INPUT = 512

#: Node capacity of the STR trees the exact R-tree join builds: the paper
#: pairs join faster at 16 than at ``DEFAULT_MAX_ENTRIES`` (32, which
#: also sizes space accounting, tree caches and sample joins; DESIGN §9).
_EXACT_FANOUT = 16

#: JoinMethod → predicate-engine name, for the ``predicate=`` delegation.
_PREDICATE_METHODS = {"auto": "auto", "nested": "naive", "sweep": "sweep"}


def _predicate_requested(predicate: "JoinPredicate | None") -> bool:
    return predicate is not None and predicate.key != "intersects"


def _check_method(method: JoinMethod) -> None:
    if method not in _METHODS:
        raise ValueError(f"unknown join method {method!r}; use one of {_METHODS}")


def _predicate_method(method: JoinMethod, predicate: "JoinPredicate") -> str:
    _check_method(method)
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
    return rtree_join_count(a, b)


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
    return rtree_join_pairs(a, b)


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


def rtree_join_count(a: RectArray, b: RectArray) -> int:
    """Exact intersecting-pair count by the R-tree join (``method="rtree"``)."""
    return flat_join_count(
        flat_load_str(a, max_entries=_EXACT_FANOUT),
        flat_load_str(b, max_entries=_EXACT_FANOUT),
    )


def rtree_join_pairs(a: RectArray, b: RectArray) -> np.ndarray:
    """All intersecting pairs by the R-tree join, in canonical order."""
    return flat_join_pairs(
        flat_load_str(a, max_entries=_EXACT_FANOUT),
        flat_load_str(b, max_entries=_EXACT_FANOUT),
    )


def canonical_pair_order(pairs: np.ndarray) -> np.ndarray:
    """Sort a ``(k, 2)`` pair array into the library-wide canonical order.

    The contract shared by every exact engine: rows sorted
    lexicographically by ``(a_id, b_id)``.  Rows are unique by
    construction (each engine reports a pair exactly once), so the
    canonical order is a total order and equal pair *sets* compare equal
    with ``np.array_equal`` after this sort.
    """
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return pairs[order]


def _resolve(a: RectArray, b: RectArray, method: JoinMethod) -> JoinMethod:
    _check_method(method)
    if method != "auto":
        return method
    if len(a) + len(b) <= _SMALL_INPUT:
        return "nested"
    return "rtree"
