"""Hypothesis properties: predicate engines vs the naive oracle.

The property gate of the predicate-parameterized accuracy suite.
Hypothesis generates adversarial inputs — coordinates snapped to a
coarse grid (endpoint ties everywhere), zero-area rectangles, coincident
points — and every specialized engine must match the blocked dense
oracle, for every standard predicate.  On top of the differential
property, the degenerate-parameter identities the ISSUE pins:

* ε = 0 is *bit-identical* to the intersects engines;
* ε past the universe diagonal is the cross product;
* ``lt`` + ``ge`` counts complement to ``|a| · |b|``;
* interval overlap along x equals intersects on y-flattened data;
* reversing the inputs under the reversed predicate transposes the
  pair set.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import Rect, RectArray
from repro.join.naive import nested_loop_pairs
from repro.predicates import (
    STANDARD_PREDICATES,
    Inequality,
    WithinDistance,
    epsilon_join_pairs,
    inequality_join_count,
    naive_predicate_count,
    naive_predicate_pairs,
    predicate_join_count,
    predicate_join_pairs,
    supported_join_methods,
)

pytestmark = pytest.mark.accuracy

# Coordinates on a coarse 1/8 grid: ties, shared edges, and exact-ε gaps
# are the common case, not the measure-zero one.
grid_coords = st.integers(min_value=0, max_value=8).map(lambda k: k / 8.0)
epsilons = st.sampled_from([0.0, 0.125, 0.25, 0.5, 5.0])


@st.composite
def degenerate_rect_arrays(draw, max_n=18):
    """Rect arrays where zero-width/zero-height rows are routine."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    rects = [
        Rect.from_points(
            draw(grid_coords), draw(grid_coords), draw(grid_coords), draw(grid_coords)
        )
        for _ in range(n)
    ]
    return RectArray.from_rects(rects)


@settings(max_examples=40, deadline=None)
@given(degenerate_rect_arrays(), degenerate_rect_arrays())
def test_property_engines_match_oracle_standard_predicates(a, b):
    for predicate in STANDARD_PREDICATES.values():
        reference = naive_predicate_pairs(a, b, predicate)
        assert naive_predicate_count(a, b, predicate) == len(reference)
        for method in supported_join_methods(predicate):
            got = predicate_join_pairs(a, b, predicate, method=method)
            assert np.array_equal(got, reference), (predicate.key, method)


@settings(max_examples=40, deadline=None)
@given(degenerate_rect_arrays(), degenerate_rect_arrays(), epsilons)
def test_property_epsilon_join_matches_oracle(a, b, eps):
    predicate = WithinDistance(eps)
    reference = naive_predicate_pairs(a, b, predicate)
    for engine in ("flat", "sweep"):
        assert np.array_equal(epsilon_join_pairs(a, b, eps, engine=engine), reference)


@settings(max_examples=40, deadline=None)
@given(degenerate_rect_arrays(), degenerate_rect_arrays())
def test_property_eps_zero_is_intersects_bit_for_bit(a, b):
    reference = nested_loop_pairs(a, b)
    for engine in ("flat", "sweep"):
        got = epsilon_join_pairs(a, b, 0.0, engine=engine)
        assert got.dtype == reference.dtype
        assert np.array_equal(got, reference)


@settings(max_examples=40, deadline=None)
@given(degenerate_rect_arrays(), degenerate_rect_arrays())
def test_property_huge_eps_is_cross_product(a, b):
    # The grid universe is [0,1]²: ε = 2 exceeds its diagonal, so every
    # pair (if any rows exist) qualifies.
    predicate = WithinDistance(2.0)
    expected = len(a) * len(b)
    for method in supported_join_methods(predicate):
        assert predicate_join_count(a, b, predicate, method=method) == expected


@settings(max_examples=40, deadline=None)
@given(
    degenerate_rect_arrays(),
    degenerate_rect_arrays(),
    st.sampled_from(["lt", "le"]),
    st.sampled_from(["xmin", "xmax", "ymin", "ymax"]),
)
def test_property_inequality_complement(a, b, op, endpoint):
    predicate = Inequality(op, endpoint)
    total = len(a) * len(b)
    assert (
        inequality_join_count(a, b, predicate)
        + inequality_join_count(a, b, predicate.complement())
        == total
    )


@settings(max_examples=40, deadline=None)
@given(degenerate_rect_arrays(), degenerate_rect_arrays())
def test_property_interval_x_is_intersects_on_flattened(a, b):
    def flatten(r):
        zero = np.zeros(len(r))
        return RectArray(r.xmin, zero, r.xmax, zero)

    reference = nested_loop_pairs(flatten(a), flatten(b))
    predicate = STANDARD_PREDICATES["interval_x"]
    for method in supported_join_methods(predicate):
        got = predicate_join_pairs(a, b, predicate, method=method)
        assert np.array_equal(got, reference), method


@settings(max_examples=40, deadline=None)
@given(degenerate_rect_arrays(), degenerate_rect_arrays())
def test_property_reversed_arguments_transpose_the_pairs(a, b):
    # Every engine by name, so the nested loop and the tree engine
    # each hold the identity, not only the one ``auto`` picks.
    for predicate in STANDARD_PREDICATES.values():
        for method in supported_join_methods(predicate):
            forward = predicate_join_pairs(a, b, predicate, method=method)
            backward = predicate_join_pairs(b, a, predicate.reversed(), method=method)
            swapped = forward[:, ::-1]
            order = np.lexsort((swapped[:, 1], swapped[:, 0]))
            assert np.array_equal(swapped[order], backward), (predicate.key, method)


@settings(max_examples=30, deadline=None)
@given(degenerate_rect_arrays(max_n=10))
def test_property_coincident_pools_self_join(a):
    """Self-joins on tie-heavy pools: the dense mask diagonal is all-True
    for the reflexive predicates, and engine counts still match."""
    for key in ("intersects", "within_eps", "interval_x"):
        predicate = STANDARD_PREDICATES[key]
        if len(a):
            assert predicate.pair_mask(a, a).diagonal().all(), key
        expected = naive_predicate_count(a, a, predicate)
        for method in supported_join_methods(predicate):
            assert predicate_join_count(a, a, predicate, method=method) == expected, (key, method)
