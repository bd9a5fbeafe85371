"""Differential engine matrix: every predicate engine vs the naive oracle.

The accuracy gate for the exact layer: on seeded random inputs, every
engine in ``supported_join_methods(predicate)`` must reproduce the naive
oracle's *pair set* (``np.array_equal`` — the canonical ordering
contract makes that meaningful), for every standard predicate.  Plus the
algebraic identities that hold exactly: ε = 0 is bit-identical to the
intersects engines, ``lt``/``ge`` complement to the cross product, and
reversing arguments matches the reversed predicate.
"""

import numpy as np
import pytest

from repro.geometry import RectArray
from repro.join.naive import nested_loop_pairs
from repro.predicates import (
    STANDARD_PREDICATES,
    Inequality,
    Intersects,
    IntervalOverlap,
    WithinDistance,
    epsilon_join_pairs,
    inequality_join_count,
    interval_join_pairs,
    naive_predicate_count,
    naive_predicate_pairs,
    predicate_join_count,
    predicate_join_pairs,
    predicate_selectivity,
    supported_join_methods,
)

from tests.conftest import random_rects

pytestmark = pytest.mark.accuracy

_EMPTY = RectArray(
    np.empty(0), np.empty(0), np.empty(0), np.empty(0)
)


@pytest.fixture(scope="module")
def pair():
    rng = np.random.default_rng(2206_07396)
    return random_rects(rng, 300), random_rects(rng, 400)


@pytest.fixture(scope="module")
def gridded_pair():
    """Coordinates snapped to a coarse grid — forces endpoint ties, the
    regime where searchsorted side=left/right bugs hide."""
    rng = np.random.default_rng(8)
    a, b = random_rects(rng, 250), random_rects(rng, 350)

    def snap(r):
        g = 16.0
        x0, y0 = np.floor(r.xmin * g) / g, np.floor(r.ymin * g) / g
        x1, y1 = np.ceil(r.xmax * g) / g, np.ceil(r.ymax * g) / g
        return RectArray(x0, y0, x1, y1)

    return snap(a), snap(b)


@pytest.mark.parametrize("pred_name", sorted(STANDARD_PREDICATES))
@pytest.mark.parametrize("fixture", ["pair", "gridded_pair"])
def test_every_engine_matches_naive_oracle(request, pred_name, fixture):
    a, b = request.getfixturevalue(fixture)
    predicate = STANDARD_PREDICATES[pred_name]
    expected_pairs = naive_predicate_pairs(a, b, predicate)
    expected_count = len(expected_pairs)
    assert naive_predicate_count(a, b, predicate) == expected_count
    for method in supported_join_methods(predicate) + ("auto",):
        assert predicate_join_count(a, b, predicate, method=method) == expected_count, method
        got = predicate_join_pairs(a, b, predicate, method=method)
        assert np.array_equal(got, expected_pairs), method


@pytest.mark.parametrize("pred_name", sorted(STANDARD_PREDICATES))
def test_blocked_oracle_is_blocking_invariant(pair, pred_name):
    """Block size must not change the oracle's answer (off-by-one sweep).

    Block 1 runs one Python iteration per pair of rectangles, so it runs
    on a 45 x 53 slice of the pair, whose sides are multiples of neither
    7 nor 64 and which holds at least one qualifying pair."""
    a, b = pair
    predicate = STANDARD_PREDICATES[pred_name]
    reference = naive_predicate_pairs(a, b, predicate)
    for block in (7, 64, 10_000):
        assert naive_predicate_count(a, b, predicate, block=block) == len(reference)
        assert np.array_equal(naive_predicate_pairs(a, b, predicate, block=block), reference)
    a, b = a[:45], b[:53]
    reference = naive_predicate_pairs(a, b, predicate)
    assert len(reference) > 0
    assert naive_predicate_count(a, b, predicate, block=1) == len(reference)
    assert np.array_equal(naive_predicate_pairs(a, b, predicate, block=1), reference)


@pytest.mark.parametrize("engine", ["flat", "sweep"])
def test_eps_zero_bit_identical_to_intersects(pair, engine):
    """The ISSUE acceptance bar: ε = 0 engines reproduce the existing
    intersects join bit for bit (same pair array, same dtype)."""
    a, b = pair
    expected = nested_loop_pairs(a, b)
    got = epsilon_join_pairs(a, b, 0.0, engine=engine)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


def test_eps_monotone_and_saturating(pair):
    a, b = pair
    counts = [
        predicate_join_count(a, b, WithinDistance(eps))
        for eps in (0.0, 0.01, 0.05, 0.2, 2.0)
    ]
    assert counts == sorted(counts)
    # Unit-extent data: ε = 2 > the diagonal, so every pair qualifies.
    assert counts[-1] == len(a) * len(b)


def test_interval_join_is_projected_intersects(pair):
    """IntervalOverlap('x') must equal Intersects on y-flattened data."""
    a, b = pair
    flat_a = RectArray(a.xmin, np.zeros(len(a)), a.xmax, np.zeros(len(a)))
    flat_b = RectArray(b.xmin, np.zeros(len(b)), b.xmax, np.zeros(len(b)))
    expected = nested_loop_pairs(flat_a, flat_b)
    for engine in ("sweep", "flat", "nested"):
        assert np.array_equal(interval_join_pairs(a, b, "x", engine=engine), expected)


@pytest.mark.parametrize("endpoint", ["xmin", "ymax"])
def test_inequality_complement_identity(gridded_pair, endpoint):
    """count(lt) + count(ge) = |a|·|b| exactly, even with ties."""
    a, b = gridded_pair
    total = len(a) * len(b)
    for op in ("lt", "le"):
        predicate = Inequality(op, endpoint)
        assert (
            inequality_join_count(a, b, predicate)
            + inequality_join_count(a, b, predicate.complement())
            == total
        )


@pytest.mark.parametrize("pred_name", sorted(STANDARD_PREDICATES))
def test_reversed_arguments_identity(gridded_pair, pred_name):
    """pairs(a P b) with columns swapped = pairs(b P.reversed() a)."""
    a, b = gridded_pair
    predicate = STANDARD_PREDICATES[pred_name]
    forward = predicate_join_pairs(a, b, predicate)
    backward = predicate_join_pairs(b, a, predicate.reversed())
    swapped = forward[:, ::-1]
    order = np.lexsort((swapped[:, 1], swapped[:, 0]))
    assert np.array_equal(swapped[order], backward)


@pytest.mark.parametrize("pred_name", sorted(STANDARD_PREDICATES))
def test_empty_inputs(pair, pred_name):
    a, _ = pair
    predicate = STANDARD_PREDICATES[pred_name]
    for left, right in ((_EMPTY, a), (a, _EMPTY), (_EMPTY, _EMPTY)):
        assert predicate_join_count(left, right, predicate) == 0
        pairs = predicate_join_pairs(left, right, predicate)
        assert pairs.shape == (0, 2)
        assert pairs.dtype == np.int64
        assert predicate_selectivity(left, right, predicate) == 0.0


def test_selectivity_matches_count(pair):
    a, b = pair
    for predicate in STANDARD_PREDICATES.values():
        expected = predicate_join_count(a, b, predicate) / (len(a) * len(b))
        assert predicate_selectivity(a, b, predicate) == expected


def test_unsupported_method_rejected(pair):
    a, b = pair
    with pytest.raises(ValueError, match="not supported"):
        predicate_join_count(a, b, Inequality("lt", "xmin"), method="flat")
    with pytest.raises(ValueError, match="not supported"):
        predicate_join_pairs(a, b, Intersects(), method="partition")


def test_bad_engine_arguments(pair):
    a, b = pair
    with pytest.raises(ValueError, match="engine"):
        epsilon_join_pairs(a, b, 0.1, engine="nested")
    with pytest.raises(ValueError, match="engine"):
        interval_join_pairs(a, b, "x", engine="bogus")
    with pytest.raises(ValueError, match="block"):
        naive_predicate_count(a, b, Intersects(), block=0)


def test_supported_methods_shape():
    assert supported_join_methods(Intersects()) == ("naive", "sweep", "flat")
    assert supported_join_methods(WithinDistance(0.1)) == ("naive", "sweep", "flat")
    assert supported_join_methods(IntervalOverlap("y")) == ("naive", "sweep", "flat")
    assert supported_join_methods(Inequality("ge", "ymin")) == ("naive", "sweep")
