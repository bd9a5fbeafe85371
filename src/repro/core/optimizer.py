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

The DP runs over integer bitmask subsets of the (sorted) relations:
adjacency masks are precomputed once, so the connectivity rule is a
mask test, and each subset's cardinality is computed once, with the
same formula :func:`plan_cardinality` uses, so every path into a subset
sees the same float.  A call costs O(2^k · k) for ``k`` relations —
fine for the handfuls of relations spatial queries join.  The point of
the example (examples/query_optimizer.py) is that plugging in GH
estimates yields the same plan as plugging in the true selectivities,
while the naive parametric estimator can be fooled by skew.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

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


def _independence_product(sizes: Iterable[float], sels: Iterable[float]) -> float:
    """``prod sizes * prod sels``, multiplied left to right.

    The one cardinality formula: :func:`plan_cardinality` and the DP in
    :func:`optimize_join_order` both feed it sizes in sorted-name order
    and the present edges in sorted-pair order, so both produce the
    same float for the same set of relations.
    """
    card = 1.0
    for size in sizes:
        card *= size
    for sel in sels:
        card *= sel
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
    pair_sels = (_selectivity(selectivities, a, b) for a, b in combinations(ordered, 2))
    return _independence_product(
        (sizes[name] for name in ordered), (sel for sel in pair_sels if sel is not None)
    )


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
    size = [sizes[name] for name in names]
    adjacent = [0] * k  # bit j of adjacent[i]: an edge joins names[i] and names[j]
    edges: List[Tuple[int, float]] = []  # (pair mask, selectivity), sorted-pair order
    for i, j in combinations(range(k), 2):
        sel = _selectivity(selectivities, names[i], names[j])
        if sel is not None:
            adjacent[i] |= 1 << j
            adjacent[j] |= 1 << i
            edges.append(((1 << i) | (1 << j), sel))

    def cardinality(subset: int) -> float:
        return _independence_product(
            (size[i] for i in range(k) if subset >> i & 1),
            (sel for pair, sel in edges if subset & pair == pair),
        )

    # DP over subsets: best (cost, order) to produce each subset, where
    # cost = sum of cardinalities of all intermediate results produced
    # (the final result is also counted once, uniformly across plans).
    # Subsets are extended one relation at a time, layer by layer, in
    # first-reached order; a strict < keeps the first of equal costs.
    best: Dict[int, Tuple[float, Tuple[int, ...]]] = {1 << i: (0.0, (i,)) for i in range(k)}
    neighbours = {1 << i: adjacent[i] for i in range(k)}  # relations adjacent to a member
    card: Dict[int, float] = {}
    layer = [1 << i for i in range(k)]
    for _ in range(k - 1):
        next_layer: List[int] = []
        for subset in layer:
            base_cost, base_order = best[subset]
            # Prefer connected extensions; allow a Cartesian step only
            # when no relation connects (keeps disconnected graphs legal).
            frontier = neighbours[subset] & ~subset
            for i in range(k):
                bit = 1 << i
                if subset & bit or (frontier and not frontier & bit):
                    continue
                grown = subset | bit
                if grown not in card:
                    card[grown] = cardinality(grown)
                    neighbours[grown] = neighbours[subset] | adjacent[i]
                    next_layer.append(grown)
                cost = base_cost + card[grown]
                entry = best.get(grown)
                if entry is None or cost < entry[0]:
                    best[grown] = (cost, base_order + (i,))
        layer = next_layer

    full = (1 << k) - 1
    cost, order = best[full]
    return JoinPlan(tuple(names[i] for i in order), cost, card[full])
