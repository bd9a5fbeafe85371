"""Unit tests for R-tree shape statistics and the space accounting, read
off flat trees (packed loads and flattened insertion-built trees)."""

import pytest

from repro.geometry import RectArray
from repro.rtree import (
    BYTES_PER_ENTRY,
    FlatRTree,
    RTree,
    bulk_load_str,
    flat_load_str,
    tree_size_bytes,
)
from tests.conftest import random_rects


class TestCollectStats:
    def test_entry_count_matches_len(self, rng):
        tree = flat_load_str(random_rects(rng, 500), max_entries=20)
        assert len(tree) == 500
        assert int(tree.level_count[0].sum()) == 500

    def test_heights_agree(self, rng):
        rects = random_rects(rng, 500)
        obj = RTree.from_rect_array(rects, max_entries=8)
        assert FlatRTree.from_tree(obj).height == obj.height
        assert flat_load_str(rects, max_entries=8).height == 3  # 63, 8, 1 nodes

    def test_node_count_decomposition(self, rng):
        tree = flat_load_str(random_rects(rng, 300), max_entries=8)
        internal_entries = sum(int(c.sum()) for c in tree.level_count[1:])
        # Every non-root node is a child entry of some internal node.
        assert internal_entries == tree.node_count - 1

    def test_size_accounting(self, rng):
        tree = flat_load_str(random_rects(rng, 100), max_entries=10)
        # 100 entries in 10 leaves under one root: 100 + 10 entries.
        assert tree.node_count == 11
        assert tree_size_bytes(tree) == (100 + 10) * BYTES_PER_ENTRY

    def test_leaf_fill(self, rng):
        tree = flat_load_str(random_rects(rng, 1000), max_entries=25)
        assert 20 <= len(tree) / len(tree.level_mbrs[0]) <= 25

    def test_empty_tree(self):
        tree = flat_load_str(RectArray.empty())
        assert len(tree) == 0
        assert tree.node_count == 0
        assert tree_size_bytes(tree) == 0
        assert tree_size_bytes(FlatRTree.from_tree(RTree())) == 0

    def test_dynamic_tree_stats(self, rng):
        obj = RTree.from_rect_array(random_rects(rng, 200), max_entries=6)
        tree = FlatRTree.from_tree(obj)
        assert len(tree) == 200
        assert len(tree.level_mbrs[0]) >= 200 / 6
        internal_entries = sum(int(c.sum()) for c in tree.level_count[1:])
        assert internal_entries == tree.node_count - 1

    def test_size_grows_with_data(self, rng):
        small = tree_size_bytes(flat_load_str(random_rects(rng, 100)))
        large = tree_size_bytes(flat_load_str(random_rects(rng, 10_000)))
        assert large > 50 * small


def object_tree_bytes(tree: RTree) -> int:
    """The space accounting over an object tree's nodes: one entry per
    data rectangle and one per child pointer."""
    return sum(node.fanout for node in tree.root.walk()) * BYTES_PER_ENTRY


class TestSpaceAccounting:
    @pytest.mark.parametrize("n", [0, 1, 33, 1000])
    def test_flat_accounting_matches_object_nodes(self, rng, n):
        rects = random_rects(rng, n)
        packed = bulk_load_str(rects)
        assert tree_size_bytes(flat_load_str(rects)) == object_tree_bytes(packed)
        assert tree_size_bytes(FlatRTree.from_tree(packed)) == object_tree_bytes(packed)
        for split in ("quadratic", "rstar"):
            inserted = RTree.from_rect_array(rects[: min(n, 300)], max_entries=6, split=split)
            assert tree_size_bytes(FlatRTree.from_tree(inserted)) == object_tree_bytes(
                inserted
            )
