"""Property-based tests of R-tree structure and query correctness."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.geometry import Rect, RectArray
from repro.rtree import RTree, bulk_load_hilbert, bulk_load_str

coordinate = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@st.composite
def rect_lists(draw, max_size=60):
    n = draw(st.integers(min_value=0, max_value=max_size))
    rects = []
    for _ in range(n):
        x1, x2 = draw(coordinate), draw(coordinate)
        y1, y2 = draw(coordinate), draw(coordinate)
        rects.append(Rect.from_points(x1, y1, x2, y2))
    return RectArray.from_rects(rects)


@st.composite
def query_rects(draw):
    x1, x2 = draw(coordinate), draw(coordinate)
    y1, y2 = draw(coordinate), draw(coordinate)
    return Rect.from_points(x1, y1, x2, y2)


def check_invariants(node, max_entries, is_root=True):
    if not is_root:
        assert node.fanout <= max_entries
    for child in node.children:
        assert child.level == node.level - 1
        assert node.mbr[0] <= child.mbr[0] and node.mbr[1] <= child.mbr[1]
        assert node.mbr[2] >= child.mbr[2] and node.mbr[3] >= child.mbr[3]
        check_invariants(child, max_entries, is_root=False)


@settings(max_examples=60, deadline=None)
@given(rect_lists(), query_rects(), st.sampled_from([4, 8]))
def test_dynamic_tree_query_matches_brute_force(rects, query, max_entries):
    tree = RTree.from_rect_array(rects, max_entries=max_entries)
    expected = np.nonzero(rects.intersects_rect(query))[0] if len(rects) else []
    assert tree.search(query).tolist() == list(expected)
    check_invariants(tree.root, max_entries)


@settings(max_examples=60, deadline=None)
@given(rect_lists(), query_rects(), st.sampled_from([bulk_load_str, bulk_load_hilbert]))
def test_packed_tree_query_matches_brute_force(rects, query, loader):
    tree = loader(rects, max_entries=8)
    expected = np.nonzero(rects.intersects_rect(query))[0] if len(rects) else []
    assert tree.search(query).tolist() == list(expected)
    check_invariants(tree.root, 8)


@settings(max_examples=40, deadline=None)
@given(rect_lists(max_size=40), rect_lists(max_size=40))
def test_join_count_matches_oracle(a, b):
    from repro.join import nested_loop_count
    from repro.rtree import FlatRTree, flat_join_count

    got = flat_join_count(
        FlatRTree.from_tree(bulk_load_str(a, max_entries=4)),
        FlatRTree.from_tree(RTree.from_rect_array(b, max_entries=4)),
    )
    assert got == nested_loop_count(a, b)
