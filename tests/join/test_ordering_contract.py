"""The pair-output ordering contract shared by every exact engine.

Contract (documented in :mod:`repro.join.api`): every ``*_pairs``
function — nested loop, plane sweep and R-tree join — returns

* a ``(k, 2)`` array of dtype ``int64`` (ids into the original inputs),
* with **unique** rows (each intersecting pair reported exactly once),
* sorted **lexicographically by (a_id, b_id)**.

The sort makes engine outputs directly comparable with
``np.array_equal``, which is what the differential matrix in
``test_join_agreement.py`` relies on.  This module pins the
contract itself, so a future engine that forgets to canonicalize fails
here with a named reason instead of as an opaque matrix mismatch.
"""

import numpy as np
import pytest

from repro.join import join_pairs, nested_loop_pairs, plane_sweep_pairs
from repro.join.api import canonical_pair_order
from tests.conftest import random_rects

pytestmark = pytest.mark.accuracy

PAIRERS = {
    "nested": nested_loop_pairs,
    "sweep": plane_sweep_pairs,
    "rtree": lambda a, b: join_pairs(a, b, method="rtree"),
    "api_auto": join_pairs,
}


def assert_canonical(pairs: np.ndarray) -> None:
    """Assert the full contract on one pair array."""
    assert pairs.dtype == np.int64
    assert pairs.ndim == 2 and pairs.shape[1] == 2
    if len(pairs) < 2:
        return
    # Lexicographic, strictly increasing (strictness == row uniqueness).
    a, b = pairs[:, 0], pairs[:, 1]
    increasing = (a[:-1] < a[1:]) | ((a[:-1] == a[1:]) & (b[:-1] < b[1:]))
    assert increasing.all(), "rows not in strict (a_id, b_id) lexicographic order"


@pytest.mark.parametrize("name", sorted(PAIRERS))
def test_pairs_are_canonical(name, rng):
    a = random_rects(rng, 400)
    b = random_rects(rng, 300)
    pairs = PAIRERS[name](a, b)
    assert len(pairs) > 0, "fixture produced a joinless pair — tighten max_side"
    assert_canonical(pairs)


@pytest.mark.parametrize("name", sorted(PAIRERS))
def test_empty_result_shape(name):
    a = random_rects(np.random.default_rng(1), 40, max_side=0.001)
    b = a.translate(500.0, 500.0)  # disjoint by construction
    pairs = PAIRERS[name](a, b)
    assert pairs.shape == (0, 2)
    assert pairs.dtype == np.int64


def test_canonical_pair_order_is_idempotent(rng):
    a = random_rects(rng, 350)
    b = random_rects(rng, 350)
    pairs = join_pairs(a, b)
    assert np.array_equal(canonical_pair_order(pairs), pairs)
    # A shuffle sorts back to the same array — the order is total.
    shuffled = pairs[rng.permutation(len(pairs))]
    assert np.array_equal(canonical_pair_order(shuffled), pairs)
