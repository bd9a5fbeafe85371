"""Unit tests for the join-order optimizer."""

import math
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import optimize_join_order, plan_cardinality


class TestPlanCardinality:
    def test_two_way(self):
        sizes = {"A": 100, "B": 200}
        sels = {("A", "B"): 0.01}
        assert plan_cardinality(["A", "B"], sizes, sels) == pytest.approx(200.0)

    def test_missing_edge_is_cartesian(self):
        sizes = {"A": 10, "B": 10}
        assert plan_cardinality(["A", "B"], sizes, {}) == 100.0

    def test_three_way_multiplies_edges(self):
        sizes = {"A": 10, "B": 10, "C": 10}
        sels = {("A", "B"): 0.1, ("B", "C"): 0.5}
        assert plan_cardinality(["A", "B", "C"], sizes, sels) == pytest.approx(50.0)

    def test_edge_key_order_insensitive(self):
        sizes = {"A": 10, "B": 20}
        forward = plan_cardinality(["A", "B"], sizes, {("A", "B"): 0.3})
        backward = plan_cardinality(["B", "A"], sizes, {("B", "A"): 0.3})
        assert forward == backward


class TestOptimizeJoinOrder:
    def test_single_dataset(self):
        plan = optimize_join_order({"A": 42}, {})
        assert plan.order == ("A",)
        assert plan.cardinality == 42.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            optimize_join_order({}, {})

    def test_picks_selective_join_first(self):
        """Classic scenario: start from the most selective pair."""
        sizes = {"A": 1000, "B": 1000, "C": 1000}
        sels = {
            ("A", "B"): 1e-6,  # tiny intermediate
            ("B", "C"): 1e-1,  # huge intermediate
            ("A", "C"): 1e-1,
        }
        plan = optimize_join_order(sizes, sels)
        assert set(plan.order[:2]) == {"A", "B"}

    def test_avoids_cartesian_when_connected_exists(self):
        sizes = {"A": 10, "B": 10, "C": 10}
        sels = {("A", "B"): 0.5, ("B", "C"): 0.5}
        plan = optimize_join_order(sizes, sels)
        # C must not be joined before B is in (no A-C edge).
        order = plan.order
        assert order.index("C") > order.index("B") or order.index("A") > order.index("B")

    def test_disconnected_graph_still_plans(self):
        sizes = {"A": 10, "B": 10, "C": 5, "D": 5}
        sels = {("A", "B"): 0.1, ("C", "D"): 0.1}
        plan = optimize_join_order(sizes, sels)
        assert set(plan.order) == {"A", "B", "C", "D"}

    def test_cost_counts_intermediates(self):
        sizes = {"A": 100, "B": 100}
        sels = {("A", "B"): 0.01}
        plan = optimize_join_order(sizes, sels)
        assert plan.cost == pytest.approx(100.0)  # the single (final) result

    def test_final_cardinality_independent_of_order(self):
        sizes = {"A": 50, "B": 60, "C": 70}
        sels = {("A", "B"): 0.1, ("B", "C"): 0.2, ("A", "C"): 0.05}
        plan = optimize_join_order(sizes, sels)
        assert plan.cardinality == pytest.approx(
            plan_cardinality(("A", "B", "C"), sizes, sels)
        )

    def test_better_estimates_better_plan(self):
        """A wildly wrong selectivity changes the chosen order — the
        reason estimation accuracy matters to an optimizer."""
        sizes = {"A": 10_000, "B": 10_000, "C": 10_000}
        true_sels = {("A", "B"): 1e-7, ("B", "C"): 1e-2, ("A", "C"): 1e-2}
        bad_sels = {("A", "B"): 1e-2, ("B", "C"): 1e-7, ("A", "C"): 1e-2}
        good_plan = optimize_join_order(sizes, true_sels)
        bad_plan = optimize_join_order(sizes, bad_sels)
        assert set(good_plan.order[:2]) == {"A", "B"}
        assert set(bad_plan.order[:2]) == {"B", "C"}


class TestOneCardinalityFormula:
    def test_cost_is_the_sum_of_prefix_cardinalities(self):
        """The DP and plan_cardinality share one formula, so a plan's
        cost and final cardinality replay bit-for-bit from its order."""
        sizes = {"A": 1_000_003, "B": 77, "C": 999_331, "D": 12_345, "E": 3}
        sels = {
            ("A", "B"): 0.1 / 3,
            ("C", "B"): 1e-3 / 7,  # reversed key orientation
            ("A", "D"): 0.3,
            ("D", "E"): 2e-5,
            ("B", "E"): 0.7,
        }
        plan = optimize_join_order(sizes, sels)
        cost = 0.0
        for k in range(2, len(plan.order) + 1):
            cost += plan_cardinality(plan.order[:k], sizes, sels)
        assert plan.cost == cost
        assert plan.cardinality == plan_cardinality(plan.order, sizes, sels)

    def test_name_order_does_not_change_the_float(self):
        sizes = {"A": 1_000_003, "B": 999_331, "C": 12_347, "D": 3}
        sels = {("A", "B"): 0.1 / 3, ("B", "C"): 1e-3 / 7, ("C", "D"): 0.3}
        values = {
            plan_cardinality(perm, sizes, sels) for perm in permutations(sizes)
        }
        assert len(values) == 1


# ----------------------------------------------------------------------
# The DP against brute force, and against the subset DP it replaced.


def _connected(sels, prefix, name) -> bool:
    return any((name, m) in sels or (m, name) in sels for m in prefix)


def _legal(sels, order) -> bool:
    """Every step extends by a connected relation unless none connects."""
    for step in range(1, len(order)):
        prefix, rest = order[:step], order[step:]
        if not _connected(sels, prefix, order[step]) and any(
            _connected(sels, prefix, other) for other in rest
        ):
            return False
    return True


def _cardinality(names, sizes, sels) -> float:
    card = float(math.prod(sizes[n] for n in names))
    for a, b in combinations(names, 2):
        card *= sels.get((a, b), sels.get((b, a), 1.0))
    return card


def _brute_force_cost(sizes, sels) -> float:
    costs = [
        sum(_cardinality(order[:k], sizes, sels) for k in range(2, len(order) + 1))
        for order in permutations(sorted(sizes))
        if _legal(sels, order)
    ]
    return min(costs)


_SELECTIVITY = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0]),  # zeros and equal values: ties
    st.floats(min_value=1e-6, max_value=1.0),
)


@st.composite
def _join_graphs(draw):
    k = draw(st.integers(min_value=1, max_value=6))
    names = [chr(ord("A") + i) for i in range(k)]
    sizes = {
        n: draw(st.one_of(st.just(1), st.integers(min_value=1, max_value=10**6)))
        for n in names
    }
    sels = {}
    for a, b in combinations(names, 2):
        if draw(st.booleans()):  # about half the edges: sparse, often disconnected
            key = (a, b) if draw(st.booleans()) else (b, a)
            sels[key] = draw(_SELECTIVITY)
    return sizes, sels


@settings(max_examples=300, deadline=None)
@given(_join_graphs())
def test_dp_matches_brute_force(graph):
    sizes, sels = graph
    plan = optimize_join_order(sizes, sels)
    assert sorted(plan.order) == sorted(sizes)
    assert _legal(sels, plan.order)
    if len(sizes) == 1:
        return
    assert math.isclose(plan.cost, _brute_force_cost(sizes, sels), rel_tol=1e-12, abs_tol=0.0)


def _reference_optimize_join_order(sizes, selectivities):
    """The frozenset subset DP that the bitmask DP replaced, verbatim
    apart from names: the oracle for identical join orders."""

    def edge(a, b):
        return (a, b) if a <= b else (b, a)

    def cardinality(names, normalized):
        card = 1.0
        for name in names:
            card *= sizes[name]
        for a, b in combinations(sorted(names), 2):
            sel = normalized.get(edge(a, b))
            if sel is not None:
                card *= sel
        return card

    names = sorted(sizes)
    normalized = {edge(a, b): s for (a, b), s in selectivities.items()}
    best = {frozenset([name]): (0.0, (name,)) for name in names}

    def connected(subset, name):
        return any(edge(name, member) in normalized for member in subset)

    subsets_by_size = {1: [frozenset([n]) for n in names]}
    for size in range(2, len(names) + 1):
        layer = []
        for subset in subsets_by_size[size - 1]:
            base_cost, base_order = best[subset]
            for name in names:
                if name in subset:
                    continue
                if not connected(subset, name) and any(
                    connected(subset, other) for other in names if other not in subset
                ):
                    continue
                new_subset = subset | {name}
                cost = base_cost + cardinality(tuple(new_subset), normalized)
                entry = best.get(new_subset)
                if entry is None or cost < entry[0]:
                    best[new_subset] = (cost, base_order + (name,))
                    if new_subset not in layer:
                        layer.append(new_subset)
        subsets_by_size[size] = layer
    return best[frozenset(names)]


def test_orders_identical_to_the_replaced_dp():
    rng = np.random.default_rng(20_011)
    for _ in range(2_000):
        k = int(rng.integers(2, 8))
        names = [f"R{i}" for i in range(k)]
        sizes = {n: int(rng.integers(1, 200_000)) for n in names}
        density = rng.uniform(0.0, 1.0)
        sels = {
            (a, b): float(10 ** rng.uniform(-7, 0))
            for a, b in combinations(names, 2)
            if rng.uniform() < density
        }
        cost, order = _reference_optimize_join_order(sizes, sels)
        plan = optimize_join_order(sizes, sels)
        assert plan.order == order, (sizes, sels)
        assert math.isclose(plan.cost, cost, rel_tol=1e-12)


@settings(max_examples=200, deadline=None)
@given(_join_graphs())
def test_cardinality_table_is_the_one_formula(graph):
    """The DP's table, filled factor by factor over supersets, holds for
    every subset the float the per-subset product computes."""
    from repro.core.optimizer import _cardinalities, _cardinality, _join_graph

    sizes, sels = graph
    names = sorted(sizes)
    _, factors = _join_graph(names, sizes, sels)
    table = _cardinalities(len(names), factors)
    assert len(table) == 1 << len(names)
    for subset, value in enumerate(table):
        assert value == _cardinality(subset, factors), subset
