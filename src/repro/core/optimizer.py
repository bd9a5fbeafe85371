"""A small cost-based multiway spatial-join optimizer.

Selectivity estimation exists to serve query optimization (the paper's
motivating use); this module closes that loop with a classic
Selinger-style dynamic program over join orders:

* the *cardinality* of joining a set ``S`` of datasets is modeled as
  ``prod |D_i| * prod sel(D_i, D_j)`` over the join-graph edges inside
  ``S`` (pairwise-independence assumption);
* the *cost* of a plan is the sum of intermediate result cardinalities
  (smaller intermediates = cheaper downstream work);
* joins without a connecting predicate (Cartesian products) are avoided
  unless unavoidable.

The DP runs over integer bitmask subsets of the (sorted) relations and
keeps its state in lists indexed by bitmask: adjacency masks are
precomputed once, so the connectivity rule is a mask test, and every
subset's cardinality comes from one table filled factor by factor (each
factor multiplies into every superset of its mask), which multiplies
the same factors in the same order as :func:`plan_cardinality`, so
every path into a subset sees the same float.  A call costs O(2^k · k)
for ``k`` relations — fine for the handfuls of relations spatial
queries join.  The point of the example (examples/query_optimizer.py)
is that plugging in GH estimates yields the same plan as plugging in
the true selectivities, while the naive parametric estimator can be
fooled by skew.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import List, Mapping, Optional, Sequence, Tuple

__all__ = ["JoinPlan", "optimize_join_order", "plan_cardinality"]

Edge = Tuple[str, str]


def _edge(a: str, b: str) -> Edge:
    return (a, b) if a <= b else (b, a)


def _selectivity(selectivities: Mapping[Edge, float], a: str, b: str) -> Optional[float]:
    """``sel(a, b)`` under either key orientation (the sorted key wins)."""
    edge = _edge(a, b)
    sel = selectivities.get(edge)
    if sel is None:
        sel = selectivities.get((edge[1], edge[0]))
    return sel


def _join_graph(
    names: Sequence[str], sizes: Mapping[str, int], selectivities: Mapping[Edge, float]
) -> Tuple[List[int], List[Tuple[int, float]]]:
    """Adjacency masks and cardinality factors of the join graph over ``names``.

    Bit ``j`` of ``adjacent[i]`` is set when an edge joins ``names[i]``
    and ``names[j]``.  ``factors`` lists ``(mask, factor)``: each
    relation's size under its own bit, in name order, then each present
    edge's selectivity under its pair's two bits, in index-pair order.
    """
    adjacent = [0] * len(names)
    factors: List[Tuple[int, float]] = [(1 << i, sizes[name]) for i, name in enumerate(names)]
    for i, j in combinations(range(len(names)), 2):
        sel = _selectivity(selectivities, names[i], names[j])
        if sel is not None:
            adjacent[i] |= 1 << j
            adjacent[j] |= 1 << i
            factors.append(((1 << i) | (1 << j), sel))
    return adjacent, factors


def _cardinality(subset: int, factors: Sequence[Tuple[int, float]]) -> float:
    """The product of the factors whose mask lies inside ``subset``.

    The one cardinality formula: :func:`plan_cardinality` and the DP in
    :func:`optimize_join_order` both build ``factors`` over the sorted
    names, so sizes are multiplied in sorted-name order and then the
    present edges in sorted-pair order, left to right, and both produce
    the same float for the same set of relations.
    """
    card = 1.0
    for mask, factor in factors:
        if subset & mask == mask:
            card *= factor
    return card


def _cardinalities(k: int, factors: Sequence[Tuple[int, float]]) -> List[float]:
    """:func:`_cardinality` of every subset of ``k`` relations, by bitmask.

    Factor by factor, in list order, each factor multiplies into every
    superset of its mask.  Each subset therefore sees exactly its own
    factors, in list order, starting from 1.0, so every entry is the
    float :func:`_cardinality` computes for that subset.
    """
    full = (1 << k) - 1
    card = [1.0] * (full + 1)
    for mask, factor in factors:
        subset = mask
        while subset <= full:  # supersets of mask in increasing order
            card[subset] *= factor
            subset = (subset + 1) | mask
    return card


@dataclass(frozen=True)
class JoinPlan:
    """A (left-deep) join order with its modeled cost.

    ``order`` lists dataset names in join sequence; ``cost`` is the sum
    of modeled intermediate cardinalities; ``cardinality`` the modeled
    final result size.
    """

    order: Tuple[str, ...]
    cost: float
    cardinality: float


def plan_cardinality(
    names: Sequence[str],
    sizes: Mapping[str, int],
    selectivities: Mapping[Edge, float],
) -> float:
    """Modeled result cardinality of joining ``names`` (independence model).

    Independent of the order of ``names`` and of the orientation of the
    selectivity keys; absent pairs are Cartesian (selectivity 1).
    """
    ordered = sorted(names)
    _, factors = _join_graph(ordered, sizes, selectivities)
    return _cardinality((1 << len(ordered)) - 1, factors)


def optimize_join_order(
    sizes: Mapping[str, int],
    selectivities: Mapping[Edge, float],
) -> JoinPlan:
    """Pick the left-deep join order minimizing total intermediate size.

    ``sizes`` maps dataset name to cardinality; ``selectivities`` maps
    (sorted) name pairs to estimated selectivity — absent pairs are
    treated as Cartesian products (selectivity 1), penalized so they are
    chosen only when the join graph is disconnected.
    """
    names = sorted(sizes)
    if not names:
        raise ValueError("optimize_join_order needs at least one dataset")
    if len(names) == 1:
        only = names[0]
        return JoinPlan((only,), 0.0, float(sizes[only]))

    k = len(names)
    adjacent, factors = _join_graph(names, sizes, selectivities)

    # DP over subsets: best (cost, order) to produce each subset, where
    # cost = sum of cardinalities of all intermediate results produced
    # (the final result is also counted once, uniformly across plans).
    # Subsets are extended one relation at a time, layer by layer, in
    # first-reached order; a strict < keeps the first of equal costs.
    full = (1 << k) - 1
    card = _cardinalities(k, factors)
    best_cost = [0.0] * (full + 1)
    best_order: List[Tuple[int, ...]] = [()] * (full + 1)  # () = not reached yet
    neighbours = [0] * (full + 1)  # relations adjacent to a member
    layer = [1 << i for i in range(k)]
    for i, single in enumerate(layer):
        best_order[single] = (i,)
        neighbours[single] = adjacent[i]
    for _ in range(k - 1):
        next_layer: List[int] = []
        for subset in layer:
            base_cost = best_cost[subset]
            base_order = best_order[subset]
            # Prefer connected extensions; allow a Cartesian step only
            # when no relation connects (keeps disconnected graphs legal).
            candidates = (neighbours[subset] & ~subset) or (full & ~subset)
            while candidates:
                bit = candidates & -candidates  # lowest index first
                candidates ^= bit
                i = bit.bit_length() - 1
                grown = subset | bit
                cost = base_cost + card[grown]
                if not best_order[grown]:
                    neighbours[grown] = neighbours[subset] | adjacent[i]
                    next_layer.append(grown)
                elif not cost < best_cost[grown]:
                    continue
                best_cost[grown] = cost
                best_order[grown] = base_order + (i,)
        layer = next_layer

    return JoinPlan(tuple(names[i] for i in best_order[full]), best_cost[full], card[full])
