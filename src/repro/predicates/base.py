"""Typed join predicates — the contract every engine and estimator keys on.

The paper (and PRs 1–7) specialize everything to MBR *intersection*.
This module abstracts the join condition into a small closed algebra of
frozen predicate values:

* :class:`Intersects` — closed MBR intersection (the existing join);
* :class:`WithinDistance` — minimum L2 distance ≤ ε (closed: a pair at
  distance exactly ε qualifies; ε = 0 **is** ``Intersects`` — engines
  are bit-identical there);
* :class:`IntervalOverlap` — closed 1-D interval overlap along one axis
  (the x- or y-projection of ``Intersects``);
* :class:`Inequality` — 1-D endpoint comparison ``a.<endpoint> op
  b.<endpoint>`` (``lt``/``le``/``gt``/``ge``), the predicate family of
  "Selectivity Estimation of Inequality Joins" (arXiv 2206.07396).

Every predicate knows three things:

1. its **semantics** — :meth:`JoinPredicate.pair_mask` is the dense
   pairwise truth table, the single source every naive oracle, property
   test, and refinement stage reads (boundary decisions route through
   :mod:`repro.geometry.predicates`);
2. its **metamorphic algebra** — :meth:`translated`, :meth:`scaled`,
   :meth:`swapped_axes` return the predicate that preserves the join
   when both datasets undergo the corresponding transform.  Translation
   and uniform scaling leave every predicate's *shape* intact (ε scales
   with the data); swapping the axes maps x-predicates to y-predicates.
   Keeping the *same* ``Inequality`` under an axis swap changes the
   answer — the documented non-invariance regression-tested in
   ``tests/accuracy/test_metamorphic.py``;
3. its **argument symmetry** — :meth:`reversed` gives the predicate Q
   with ``b Q a  ⟺  a P b`` (``Inequality`` flips its operator; the
   symmetric predicates return themselves).

``STANDARD_PREDICATES`` is the canonical four-entry registry the
accuracy layers (differential matrix, metamorphic suite, hypothesis
properties, golden corpus) parameterize over, so adding a predicate here
automatically runs it through all four gates.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, Mapping

import numpy as np

from ..geometry import RectArray
from ..geometry.predicates import (
    pairwise_intersection_mask,
    pairwise_interval_overlap_mask,
    pairwise_within_distance_mask,
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
]

#: Valid 1-D axes for :class:`IntervalOverlap`.
AXES = ("x", "y")

#: Valid endpoint attributes for :class:`Inequality` (RectArray columns).
ENDPOINTS = ("xmin", "xmax", "ymin", "ymax")

#: Operator name → numpy comparison, for :class:`Inequality`.
INEQUALITY_OPS: Mapping[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "lt": np.less,
    "le": np.less_equal,
    "gt": np.greater,
    "ge": np.greater_equal,
}

_FLIPPED_OP = {"lt": "gt", "le": "ge", "gt": "lt", "ge": "le"}
_SWAPPED_ENDPOINT = {"xmin": "ymin", "ymin": "xmin", "xmax": "ymax", "ymax": "xmax"}


class JoinPredicate(ABC):
    """A join condition over two rectangle collections.

    Implementations are frozen dataclasses: hashable, picklable, and
    usable as registry keys via :attr:`key`.
    """

    @property
    @abstractmethod
    def key(self) -> str:
        """Stable machine id (corpus keys, test ids, cache keys)."""

    @abstractmethod
    def pair_mask(self, a: RectArray, b: RectArray) -> np.ndarray:
        """Dense ``(len(a), len(b))`` boolean truth table.

        The semantic ground truth: every specialized engine must agree
        with this mask exactly.  Θ(len(a)·len(b)) memory — callers block
        large inputs (:func:`repro.predicates.joins.naive_predicate_pairs`).
        """

    # -- metamorphic algebra -------------------------------------------
    def translated(self, dx: float, dy: float) -> "JoinPredicate":
        """Predicate preserving the join when both datasets translate."""
        return self

    def scaled(self, s: float) -> "JoinPredicate":
        """Predicate preserving the join under uniform scaling by ``s > 0``."""
        if not s > 0:
            raise ValueError(f"scale factor must be positive, got {s!r}")
        return self

    def swapped_axes(self) -> "JoinPredicate":
        """Predicate preserving the join when both datasets swap x and y."""
        return self

    def reversed(self) -> "JoinPredicate":
        """The predicate Q with ``b Q a ⟺ a P b`` (argument swap)."""
        return self


@dataclass(frozen=True)
class Intersects(JoinPredicate):
    """Closed MBR intersection — the paper's (and the library's) default."""

    @property
    def key(self) -> str:
        return "intersects"

    def pair_mask(self, a: RectArray, b: RectArray) -> np.ndarray:
        return pairwise_intersection_mask(a, b)

    def __repr__(self) -> str:
        return "Intersects()"


@dataclass(frozen=True)
class WithinDistance(JoinPredicate):
    """Minimum L2 distance ≤ ε, closed (distance exactly ε qualifies).

    ``eps`` must be finite and non-negative; ε = 0 is exactly the closed
    intersection predicate (same float comparisons — the differential
    gate holds the ε-engines bit-identical to the intersects engines
    there).  Under uniform scaling of the data by ``s``, the preserving
    predicate is ``WithinDistance(eps * s)``.
    """

    eps: float

    def __post_init__(self) -> None:
        if not (self.eps >= 0.0 and np.isfinite(self.eps)):
            raise ValueError(f"eps must be finite and non-negative, got {self.eps!r}")

    @property
    def key(self) -> str:
        return f"within:{self.eps!r}"

    def pair_mask(self, a: RectArray, b: RectArray) -> np.ndarray:
        return pairwise_within_distance_mask(a, b, self.eps)

    def scaled(self, s: float) -> "JoinPredicate":
        if not s > 0:
            raise ValueError(f"scale factor must be positive, got {s!r}")
        return WithinDistance(self.eps * s)


@dataclass(frozen=True)
class IntervalOverlap(JoinPredicate):
    """Closed 1-D interval overlap along ``axis`` (``"x"`` or ``"y"``).

    The 1-D projection of :class:`Intersects`: intervals sharing a single
    endpoint overlap.  Swapping the axes maps ``x ↔ y``.
    """

    axis: str = "x"

    def __post_init__(self) -> None:
        if self.axis not in AXES:
            raise ValueError(f"axis must be one of {AXES}, got {self.axis!r}")

    @property
    def key(self) -> str:
        return f"interval:{self.axis}"

    def pair_mask(self, a: RectArray, b: RectArray) -> np.ndarray:
        return pairwise_interval_overlap_mask(a, b, self.axis)

    def swapped_axes(self) -> "JoinPredicate":
        return IntervalOverlap("y" if self.axis == "x" else "x")


@dataclass(frozen=True)
class Inequality(JoinPredicate):
    """Endpoint inequality join ``a.<endpoint> <op> b.<endpoint>``.

    ``op`` is one of ``lt``/``le``/``gt``/``ge``; ``endpoint`` one of the
    four RectArray coordinate columns.  Translation of both datasets
    preserves the join (values shift together), as does positive uniform
    scaling (order-preserving).  Swapping the axes preserves it only
    together with the endpoint swap ``x ↔ y`` (:meth:`swapped_axes`);
    keeping the same predicate is the documented non-invariance.  The
    join is *not* argument-symmetric: reversing the inputs requires the
    flipped operator (:meth:`reversed`), pinned by the identity
    ``count(a lt b) = count_reversed(b gt a)`` and the complement
    ``count(lt) + count(ge) = |a|·|b|``.
    """

    op: str = "lt"
    endpoint: str = "xmin"

    def __post_init__(self) -> None:
        if self.op not in INEQUALITY_OPS:
            raise ValueError(f"op must be one of {sorted(INEQUALITY_OPS)}, got {self.op!r}")
        if self.endpoint not in ENDPOINTS:
            raise ValueError(f"endpoint must be one of {ENDPOINTS}, got {self.endpoint!r}")

    @property
    def key(self) -> str:
        return f"ineq:{self.endpoint}:{self.op}"

    def values(self, rects: RectArray) -> np.ndarray:
        """The 1-D endpoint column this predicate compares."""
        values: np.ndarray = getattr(rects, self.endpoint)
        return values

    def pair_mask(self, a: RectArray, b: RectArray) -> np.ndarray:
        compare = INEQUALITY_OPS[self.op]
        mask: np.ndarray = compare(self.values(a)[:, None], self.values(b)[None, :])
        return mask

    def swapped_axes(self) -> "JoinPredicate":
        return Inequality(self.op, _SWAPPED_ENDPOINT[self.endpoint])

    def reversed(self) -> "JoinPredicate":
        return Inequality(_FLIPPED_OP[self.op], self.endpoint)

    def complement(self) -> "Inequality":
        """The negation (``lt ↔ ge``, ``le ↔ gt``): counts sum to |a|·|b|."""
        negated = {"lt": "ge", "ge": "lt", "le": "gt", "gt": "le"}[self.op]
        return Inequality(negated, self.endpoint)


#: The canonical predicate set every accuracy gate parameterizes over.
#: Keys are the fixture/test ids; the ε here is sized for the library's
#: unit-extent synthetic datasets (rect sides ≲ 0.05).
STANDARD_PREDICATES: Dict[str, JoinPredicate] = {
    "intersects": Intersects(),
    "within_eps": WithinDistance(0.05),
    "interval_x": IntervalOverlap("x"),
    "ineq_lt_xmin": Inequality("lt", "xmin"),
}


def predicate_from_key(key: str) -> JoinPredicate:
    """Parse a :attr:`JoinPredicate.key` string back into a predicate.

    The inverse of ``predicate.key`` for every predicate type — used by
    the golden corpus so committed entries are self-describing.
    """
    if key == "intersects":
        return Intersects()
    kind, _, rest = key.partition(":")
    if kind == "within":
        try:
            return WithinDistance(float(rest))
        except (TypeError, ValueError):
            raise ValueError(f"bad within-distance key {key!r}") from None
    if kind == "interval":
        return IntervalOverlap(rest)
    if kind == "ineq":
        endpoint, _, op = rest.partition(":")
        return Inequality(op, endpoint)
    raise ValueError(f"unknown predicate key {key!r}")
