"""Unit tests for the synchronized-traversal R-tree join over every tree
shape: packed loads and object trees flattened by ``FlatRTree.from_tree``."""

import numpy as np
import pytest

from repro.geometry import Rect, RectArray
from repro.join import nested_loop_count, nested_loop_pairs
from repro.rtree import (
    FlatRTree,
    RTree,
    bulk_load_hilbert,
    bulk_load_str,
    flat_join_count,
    flat_join_pairs,
    flat_load_str,
)
from tests.conftest import random_rects


def flat_str(rects, **kwargs):
    """An STR-packed object tree, flattened."""
    return FlatRTree.from_tree(bulk_load_str(rects, **kwargs))


class TestJoinCount:
    def test_empty_inputs(self):
        empty = flat_str(RectArray.empty())
        full = flat_str(RectArray.from_rects([Rect(0, 0, 1, 1)]))
        assert flat_join_count(empty, full) == 0
        assert flat_join_count(full, empty) == 0
        assert flat_join_count(empty, empty) == 0

    def test_matches_nested_loop(self, two_rect_sets):
        a, b = two_rect_sets
        expected = nested_loop_count(a, b)
        assert flat_join_count(flat_str(a), flat_str(b)) == expected

    def test_mixed_tree_kinds(self, two_rect_sets):
        a, b = two_rect_sets
        expected = nested_loop_count(a, b)
        hilbert = FlatRTree.from_tree(bulk_load_hilbert(a))
        assert flat_join_count(hilbert, flat_load_str(b)) == expected
        dynamic = FlatRTree.from_tree(RTree.from_rect_array(a, max_entries=8))
        assert flat_join_count(dynamic, flat_str(b)) == expected

    def test_unequal_heights(self, rng):
        a = random_rects(rng, 2000)
        b = random_rects(rng, 10)
        ta = flat_str(a, max_entries=8)  # taller
        tb = flat_str(b, max_entries=8)  # single leaf-ish
        assert ta.height > tb.height
        assert flat_join_count(ta, tb) == nested_loop_count(a, b)
        assert flat_join_count(tb, ta) == nested_loop_count(b, a)

    def test_self_join(self, rng):
        a = random_rects(rng, 300)
        tree = flat_str(a)
        assert flat_join_count(tree, tree) == nested_loop_count(a, a)

    def test_touching_rects_counted(self):
        a = RectArray.from_rects([Rect(0, 0, 1, 1)])
        b = RectArray.from_rects([Rect(1, 0, 2, 1), Rect(1, 1, 2, 2)])
        assert flat_join_count(flat_str(a), flat_str(b)) == 2

    def test_all_disjoint(self, rng):
        a = random_rects(rng, 100, extent=Rect(0, 0, 1, 1))
        b = random_rects(rng, 100, extent=Rect(10, 10, 11, 11))
        assert flat_join_count(flat_str(a), flat_str(b)) == 0


class TestJoinPairs:
    def test_matches_nested_loop_pairs(self, two_rect_sets):
        a, b = two_rect_sets
        expected = nested_loop_pairs(a, b)
        got = flat_join_pairs(flat_str(a), flat_str(b))
        assert np.array_equal(got, expected)

    def test_pair_order_independent_of_packing(self, two_rect_sets):
        a, b = two_rect_sets
        p1 = flat_join_pairs(flat_str(a), flat_str(b))
        p2 = flat_join_pairs(
            FlatRTree.from_tree(bulk_load_hilbert(a)),
            FlatRTree.from_tree(RTree.from_rect_array(b, max_entries=8)),
        )
        assert np.array_equal(p1, p2)

    def test_empty_pairs_shape(self):
        empty = flat_str(RectArray.empty())
        pairs = flat_join_pairs(empty, empty)
        assert pairs.shape == (0, 2)

    def test_pairs_consistent_with_count(self, two_rect_sets):
        a, b = two_rect_sets
        ta = FlatRTree.from_tree(RTree.from_rect_array(a, max_entries=8))
        tb = flat_str(b)
        assert len(flat_join_pairs(ta, tb)) == flat_join_count(ta, tb)


class TestStressShapes:
    @pytest.mark.parametrize("max_entries", [4, 64])
    def test_extreme_fanouts(self, rng, max_entries):
        a = random_rects(rng, 500)
        b = random_rects(rng, 500)
        got = flat_join_count(
            flat_str(a, max_entries=max_entries),
            flat_str(b, max_entries=max_entries),
        )
        assert got == nested_loop_count(a, b)

    def test_points_vs_rects(self, rng):
        points = RectArray.from_points(rng.random(400), rng.random(400))
        rects = random_rects(rng, 400)
        got = flat_join_count(flat_str(points), flat_str(rects))
        assert got == nested_loop_count(points, rects)

    def test_skewed_data(self, rng):
        # Heavy clustering stresses the traversal pruning.
        cx = 0.5 + 0.01 * rng.standard_normal(1000)
        cy = 0.5 + 0.01 * rng.standard_normal(1000)
        a = RectArray.from_centers(cx, cy, 0.005, 0.005)
        b = random_rects(rng, 500)
        got = flat_join_count(FlatRTree.from_tree(RTree.from_rect_array(a)), flat_str(b))
        assert got == nested_loop_count(a, b)
