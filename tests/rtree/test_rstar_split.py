"""Unit tests for the R*-tree split strategy."""

import numpy as np
import pytest

from repro.geometry import Rect
from repro.rtree import RTree
from tests.conftest import random_rects


class TestRStarSplit:
    def test_invalid_strategy_rejected(self):
        with pytest.raises(ValueError, match="split"):
            RTree(split="linear")

    def test_queries_match_brute_force(self, rng):
        rects = random_rects(rng, 600)
        tree = RTree.from_rect_array(rects, max_entries=8, split="rstar")
        for query in (Rect(0.1, 0.1, 0.4, 0.4), Rect(0, 0, 1, 1), Rect(2, 2, 3, 3)):
            expected = np.nonzero(rects.intersects_rect(query))[0]
            assert tree.search(query).tolist() == expected.tolist()

    def test_structural_invariants(self, rng):
        rects = random_rects(rng, 400)
        tree = RTree.from_rect_array(rects, max_entries=6, split="rstar")
        for node in tree.root.walk():
            if node is not tree.root:
                assert tree.min_entries <= node.fanout <= tree.max_entries
            for child in node.children:
                assert node.mbr[0] <= child.mbr[0] and node.mbr[2] >= child.mbr[2]

    def test_min_fill_respected_by_distributions(self, rng):
        rects = random_rects(rng, 300)
        tree = RTree.from_rect_array(rects, max_entries=8, min_entries=4, split="rstar")
        for node in tree.root.walk():
            if node is not tree.root:
                assert node.fanout >= 4

    def test_rstar_reduces_leaf_area(self, rng):
        """The point of the topological split: squarer, tighter leaves."""
        rects = random_rects(rng, 3000, max_side=0.02)

        def leaf_area(tree):
            return sum(
                (n.mbr[2] - n.mbr[0]) * (n.mbr[3] - n.mbr[1])
                for n in tree.root.walk()
                if n.is_leaf
            )

        quad = RTree.from_rect_array(rects, max_entries=8)
        rstar = RTree.from_rect_array(rects, max_entries=8, split="rstar")
        assert leaf_area(rstar) <= leaf_area(quad) * 1.05

    def test_join_result_unchanged(self, rng):
        from repro.join import nested_loop_count
        from repro.rtree import FlatRTree, flat_join_count, flat_load_str

        a = random_rects(rng, 400)
        b = random_rects(rng, 400)
        rstar_tree = RTree.from_rect_array(a, max_entries=8, split="rstar")
        got = flat_join_count(FlatRTree.from_tree(rstar_tree), flat_load_str(b))
        assert got == nested_loop_count(a, b)

    def test_delete_works_with_rstar(self, rng):
        rects = random_rects(rng, 100)
        tree = RTree.from_rect_array(rects, max_entries=5, split="rstar")
        for i in range(50):
            assert tree.delete(rects[i], i)
        assert len(tree) == 50

    def test_skewed_data(self, rng):
        # Highly clustered input stresses tie-breaking in the split.
        cx = 0.5 + 0.001 * rng.standard_normal(500)
        cy = 0.5 + 0.001 * rng.standard_normal(500)
        from repro.geometry import RectArray

        rects = RectArray.from_centers(cx, cy, 0.001, 0.001)
        tree = RTree.from_rect_array(rects, max_entries=6, split="rstar")
        assert len(tree) == 500
        assert tree.count(Rect(0.45, 0.45, 0.55, 0.55)) == 500
