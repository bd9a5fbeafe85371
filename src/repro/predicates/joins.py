"""Exact join engines for every :class:`~repro.predicates.base.JoinPredicate`.

Engine families
---------------
Each predicate supports a subset of three engine names (plus ``"auto"``):

* ``"naive"`` — blocked dense evaluation of the predicate's
  :meth:`~repro.predicates.base.JoinPredicate.pair_mask`.  The reference
  oracle every other engine is differentially gated against; memory is
  bounded by the block size, with a cooperative checkpoint per block.
* ``"sweep"`` — a sort-based engine:

  - ``Intersects`` → the plane sweep (:mod:`repro.join.planesweep`);
  - ``WithinDistance`` → plane sweep over the **one-sided ε-inflated**
    left input (an exact L∞ candidate filter) followed by the exact
    squared-L2 refinement;
  - ``IntervalOverlap`` → plane sweep over the y-flattened inputs (the
    1-D interval join *is* a rectangle join whose y-extents all
    coincide);
  - ``Inequality`` → the endpoint sort: sort one side's endpoint column
    once, then one vectorized ``searchsorted`` answers every row —
    O((n + m) log(n + m)) counts, output-linear pairs.

* ``"flat"`` — the exact R-tree join of :mod:`repro.join.api`
  (:func:`~repro.join.api.rtree_join_count`, the ``method="rtree"``
  engine: STR trees joined by the flat kernel of
  :mod:`repro.rtree.flat`), where a tree engine exists: directly for
  ``Intersects``, over the inflated left input (plus refinement) for
  ``WithinDistance``, over the y-flattened inputs for
  ``IntervalOverlap``.  ``Inequality`` is inherently 1-D and has no tree
  engine (``supported_join_methods`` reports what is available).

Exactness of the ε-join (DESIGN.md §14): inflating one side's MBRs by ε
turns closed MBR intersection into the test ``dx ≤ ε and dy ≤ ε`` on the
original per-axis gaps — exactly the L∞-distance-≤-ε predicate, a
superset of the L2 predicate.  The refinement stage then keeps exactly
the candidates with ``dx² + dy² ≤ ε²`` computed from the *original*
coordinates, so no float error from the inflation arithmetic can leak
into the answer, and ε = 0 (inflation by zero, refinement to ``dx = dy =
0``) reproduces the plain intersection join bit for bit.

**Ordering contract.**  Every ``*_pairs`` path returns a unique
``(k, 2)`` int64 array sorted lexicographically by ``(a_id, b_id)``,
exactly like :mod:`repro.join.api` — engines are comparable with
``np.array_equal`` across the whole differential matrix.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..geometry import RectArray
from ..join.api import canonical_pair_order, rtree_join_count, rtree_join_pairs
from ..join.naive import nested_loop_count, nested_loop_pairs
from ..join.planesweep import plane_sweep_count, plane_sweep_pairs
from ..runtime import checkpoint
from .base import Inequality, Intersects, IntervalOverlap, JoinPredicate, WithinDistance

__all__ = [
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
]

#: Block edge for the naive dense oracle (mask ≤ block² booleans).
_NAIVE_BLOCK = 1024


# ----------------------------------------------------------------------
# Naive oracle — blocked dense pair_mask evaluation
# ----------------------------------------------------------------------

def naive_predicate_count(
    a: RectArray, b: RectArray, predicate: JoinPredicate, *, block: int = _NAIVE_BLOCK
) -> int:
    """Exact pair count by blocked dense evaluation of ``pair_mask``."""
    if block < 1:
        raise ValueError(f"block must be positive, got {block}")
    total = 0
    for s in range(0, len(a), block):
        checkpoint("predicates.naive.block")
        ablock = a[s : s + block]
        for t in range(0, len(b), block):
            checkpoint("predicates.naive.block")
            mask = predicate.pair_mask(ablock, b[t : t + block])
            total += int(np.count_nonzero(mask))
    return total


def naive_predicate_pairs(
    a: RectArray, b: RectArray, predicate: JoinPredicate, *, block: int = _NAIVE_BLOCK
) -> np.ndarray:
    """All qualifying pairs via the blocked dense oracle (canonical order)."""
    if block < 1:
        raise ValueError(f"block must be positive, got {block}")
    chunks: List[np.ndarray] = []
    for s in range(0, len(a), block):
        checkpoint("predicates.naive.block")
        ablock = a[s : s + block]
        for t in range(0, len(b), block):
            checkpoint("predicates.naive.block")
            ia, ib = np.nonzero(predicate.pair_mask(ablock, b[t : t + block]))
            if len(ia):
                chunks.append(np.stack([ia + s, ib + t], axis=1))
    if not chunks:
        return np.empty((0, 2), dtype=np.int64)
    return canonical_pair_order(np.concatenate(chunks, axis=0).astype(np.int64))


# ----------------------------------------------------------------------
# ε-distance join — inflation filter + exact refinement
# ----------------------------------------------------------------------

def _epsilon_candidates(
    a: RectArray, b: RectArray, eps: float, engine: str
) -> np.ndarray:
    """L∞ candidate pairs via one-sided inflation of ``a`` by ``eps``."""
    inflated = a.inflate(eps)
    if engine == "flat":
        return rtree_join_pairs(inflated, b)
    return plane_sweep_pairs(inflated, b)


def _refine_epsilon(
    a: RectArray, b: RectArray, eps: float, candidates: np.ndarray
) -> np.ndarray:
    """Keep candidates whose exact squared L2 gap is ≤ ε².

    Gaps are computed from the *original* coordinates (gathered by
    candidate id), so the inflation arithmetic never influences the
    kept set; filtering preserves the candidates' canonical order.
    """
    if len(candidates) == 0:
        return candidates
    checkpoint("predicates.epsilon.refine")
    ia = candidates[:, 0]
    ib = candidates[:, 1]
    dx = np.maximum(
        np.maximum(a.xmin[ia] - b.xmax[ib], b.xmin[ib] - a.xmax[ia]), 0.0
    )
    dy = np.maximum(
        np.maximum(a.ymin[ia] - b.ymax[ib], b.ymin[ib] - a.ymax[ia]), 0.0
    )
    keep = dx * dx + dy * dy <= eps * eps
    return candidates[keep]


def epsilon_join_pairs(
    a: RectArray, b: RectArray, eps: float, *, engine: str = "flat"
) -> np.ndarray:
    """All pairs within (closed) L2 distance ``eps``, canonical order."""
    if engine not in ("flat", "sweep"):
        raise ValueError(f"engine must be 'flat' or 'sweep', got {engine!r}")
    return _refine_epsilon(a, b, eps, _epsilon_candidates(a, b, eps, engine))


def epsilon_join_count(
    a: RectArray, b: RectArray, eps: float, *, engine: str = "flat"
) -> int:
    """Number of pairs within (closed) L2 distance ``eps``."""
    return len(epsilon_join_pairs(a, b, eps, engine=engine))


# ----------------------------------------------------------------------
# Interval-overlap join — y-flattening reduction
# ----------------------------------------------------------------------

def _flatten_to_axis(rects: RectArray, axis: str) -> RectArray:
    """Project rectangles to their ``axis`` interval (y-extent collapsed).

    The interval join along ``axis`` equals the rectangle join of the
    flattened inputs: every flattened y-extent is the degenerate [0, 0],
    so the y-test of the closed intersection is always true and the
    x-test is exactly the closed interval overlap.
    """
    lo = rects.xmin if axis == "x" else rects.ymin
    hi = rects.xmax if axis == "x" else rects.ymax
    zero = np.zeros(len(rects), dtype=np.float64)
    return RectArray(lo, zero, hi, zero, validate=False, copy=False)


def interval_join_count(
    a: RectArray, b: RectArray, axis: str = "x", *, engine: str = "sweep"
) -> int:
    """Number of closed interval overlaps along ``axis``."""
    fa, fb = _flatten_to_axis(a, axis), _flatten_to_axis(b, axis)
    if engine == "flat":
        return rtree_join_count(fa, fb)
    if engine == "sweep":
        return plane_sweep_count(fa, fb)
    if engine == "nested":
        return nested_loop_count(fa, fb)
    raise ValueError(f"engine must be 'sweep', 'flat' or 'nested', got {engine!r}")


def interval_join_pairs(
    a: RectArray, b: RectArray, axis: str = "x", *, engine: str = "sweep"
) -> np.ndarray:
    """All closed interval overlaps along ``axis``, canonical order."""
    fa, fb = _flatten_to_axis(a, axis), _flatten_to_axis(b, axis)
    if engine == "flat":
        return rtree_join_pairs(fa, fb)
    if engine == "sweep":
        return plane_sweep_pairs(fa, fb)
    if engine == "nested":
        return nested_loop_pairs(fa, fb)
    raise ValueError(f"engine must be 'sweep', 'flat' or 'nested', got {engine!r}")


# ----------------------------------------------------------------------
# Inequality join — endpoint sort
# ----------------------------------------------------------------------

def _inequality_run_bounds(
    predicate: Inequality, a: RectArray, b: RectArray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-``a`` contiguous runs of qualifying ``b`` in endpoint order.

    Sorting ``b``'s endpoint column makes the qualifying set for every
    ``a`` value a prefix (``gt``/``ge``) or suffix (``lt``/``le``) of the
    sorted order; one vectorized ``searchsorted`` per side yields the run
    bounds.  Returns ``(order_b, start, stop)`` with the qualifying ids
    for row ``i`` being ``order_b[start[i]:stop[i]]``.
    """
    va = predicate.values(a)
    vb = predicate.values(b)
    order_b = np.argsort(vb, kind="stable").astype(np.int64)
    vb_sorted = vb[order_b]
    nb = len(vb_sorted)
    if predicate.op == "lt":  # b strictly greater: suffix
        start = np.searchsorted(vb_sorted, va, side="right")
        stop = np.full(len(va), nb, dtype=np.int64)
    elif predicate.op == "le":  # b greater or equal: suffix
        start = np.searchsorted(vb_sorted, va, side="left")
        stop = np.full(len(va), nb, dtype=np.int64)
    elif predicate.op == "gt":  # b strictly smaller: prefix
        start = np.zeros(len(va), dtype=np.int64)
        stop = np.searchsorted(vb_sorted, va, side="left")
    else:  # "ge" — b smaller or equal: prefix
        start = np.zeros(len(va), dtype=np.int64)
        stop = np.searchsorted(vb_sorted, va, side="right")
    return order_b, start.astype(np.int64), stop


def inequality_join_count(a: RectArray, b: RectArray, predicate: Inequality) -> int:
    """Exact inequality-join count via one sort + one ``searchsorted``."""
    if len(a) == 0 or len(b) == 0:
        return 0
    checkpoint("predicates.inequality.sort")
    _, start, stop = _inequality_run_bounds(predicate, a, b)
    return int(np.maximum(stop - start, 0).sum())


def inequality_join_pairs(
    a: RectArray, b: RectArray, predicate: Inequality
) -> np.ndarray:
    """All inequality-join pairs, canonical order, output-linear expansion."""
    if len(a) == 0 or len(b) == 0:
        return np.empty((0, 2), dtype=np.int64)
    checkpoint("predicates.inequality.sort")
    order_b, start, stop = _inequality_run_bounds(predicate, a, b)
    runs = np.maximum(stop - start, 0)
    total = int(runs.sum())
    if total == 0:
        return np.empty((0, 2), dtype=np.int64)
    checkpoint("predicates.inequality.expand")
    # Expand each row's [start, stop) run: repeat the row id, then build
    # the within-run offsets with the concatenated-ramp cumsum trick.
    a_ids = np.repeat(np.arange(len(a), dtype=np.int64), runs)
    offsets = np.concatenate([[0], np.cumsum(runs)[:-1]])
    local = np.arange(total, dtype=np.int64) - np.repeat(offsets, runs)
    b_pos = np.repeat(start, runs) + local
    return canonical_pair_order(np.stack([a_ids, order_b[b_pos]], axis=1))


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------

def supported_join_methods(predicate: JoinPredicate) -> Tuple[str, ...]:
    """Engine names available for ``predicate`` (excluding ``"auto"``)."""
    if isinstance(predicate, Inequality):
        return ("naive", "sweep")
    return ("naive", "sweep", "flat")


def _resolve_method(predicate: JoinPredicate, method: str) -> str:
    supported = supported_join_methods(predicate)
    if method == "auto":
        # Sort-based engines win for the 1-D predicates; the flat tree
        # kernel wins for the 2-D ones (same reasoning as join.api).
        return "sweep" if isinstance(predicate, (Inequality, IntervalOverlap)) else "flat"
    if method not in supported:
        raise ValueError(
            f"method {method!r} not supported for predicate {predicate.key!r}; "
            f"choose from {('auto',) + supported}"
        )
    return method


def predicate_join_count(
    a: RectArray, b: RectArray, predicate: JoinPredicate, *, method: str = "auto"
) -> int:
    """Exact number of pairs satisfying ``predicate`` between ``a`` and ``b``."""
    method = _resolve_method(predicate, method)
    if len(a) == 0 or len(b) == 0:
        return 0
    if method == "naive":
        return naive_predicate_count(a, b, predicate)
    if isinstance(predicate, Intersects):
        if method == "flat":
            return rtree_join_count(a, b)
        return plane_sweep_count(a, b)
    if isinstance(predicate, WithinDistance):
        return epsilon_join_count(a, b, predicate.eps, engine=method)
    if isinstance(predicate, IntervalOverlap):
        return interval_join_count(a, b, predicate.axis, engine=method)
    if isinstance(predicate, Inequality):
        return inequality_join_count(a, b, predicate)
    return naive_predicate_count(a, b, predicate)


def predicate_join_pairs(
    a: RectArray, b: RectArray, predicate: JoinPredicate, *, method: str = "auto"
) -> np.ndarray:
    """All pairs satisfying ``predicate`` — canonical ``(k, 2)`` order."""
    method = _resolve_method(predicate, method)
    if len(a) == 0 or len(b) == 0:
        return np.empty((0, 2), dtype=np.int64)
    if method == "naive":
        return naive_predicate_pairs(a, b, predicate)
    if isinstance(predicate, Intersects):
        if method == "flat":
            return rtree_join_pairs(a, b)
        return plane_sweep_pairs(a, b)
    if isinstance(predicate, WithinDistance):
        return epsilon_join_pairs(a, b, predicate.eps, engine=method)
    if isinstance(predicate, IntervalOverlap):
        return interval_join_pairs(a, b, predicate.axis, engine=method)
    if isinstance(predicate, Inequality):
        return inequality_join_pairs(a, b, predicate)
    return naive_predicate_pairs(a, b, predicate)


def predicate_selectivity(
    a: RectArray, b: RectArray, predicate: JoinPredicate, *, method: str = "auto"
) -> float:
    """Ground-truth selectivity under ``predicate`` (0 for empty inputs)."""
    if len(a) == 0 or len(b) == 0:
        return 0.0
    return predicate_join_count(a, b, predicate, method=method) / (len(a) * len(b))
