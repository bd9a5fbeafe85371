"""FlatRTree: SoA structure invariants, bit-identity to the object
engine, the randomized naive-agreement property (zero-area and
coincident rects included), and runtime preemption coverage."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import make_clustered, make_uniform
from repro.errors import EstimationTimeout
from repro.geometry import Rect, RectArray
from repro.join.naive import nested_loop_count, nested_loop_pairs
from repro.join.partition import canonical_pair_order
from repro.rtree import (
    FlatRTree,
    bulk_load_hilbert,
    bulk_load_str,
    flat_join_count,
    flat_join_pairs,
    flat_load_hilbert,
    flat_load_str,
    rtree_join_count,
)
from repro.runtime import Deadline, runtime_scope
from tests.conftest import random_rects


@pytest.fixture
def rects(rng) -> RectArray:
    return random_rects(rng, 500)


class TestStructure:
    def test_mirrors_object_tree_shape(self, rects):
        flat = flat_load_str(rects, max_entries=8)
        obj = bulk_load_str(rects, max_entries=8)
        assert len(flat) == len(rects)
        assert flat.height == obj.height
        assert flat.root_mbr == tuple(obj.root.mbr)

    def test_level_arrays_are_consistent(self, rects):
        flat = flat_load_str(rects, max_entries=8)
        # Level 0 ranges partition the entries; level l ranges partition
        # level l-1; the root level has exactly one node.
        below = len(rects)
        for start, count, mbrs in zip(
            flat.level_start, flat.level_count, flat.level_mbrs
        ):
            assert len(start) == len(count) == len(mbrs)
            assert start[0] == 0
            assert int((count > 0).all())
            assert int(count.sum()) == below
            assert np.array_equal(start, np.cumsum(count) - count)
            below = len(mbrs)
        assert len(flat.level_mbrs[-1]) == 1

    def test_parent_mbrs_contain_children(self, rects):
        flat = flat_load_str(rects, max_entries=8)
        level0 = flat.level_mbrs[0]
        coords = flat.entry_coords
        for node in range(len(level0)):
            s = flat.level_start[0][node]
            c = flat.level_count[0][node]
            box = level0[node]
            assert (coords[s : s + c, 0] >= box[0]).all()
            assert (coords[s : s + c, 2] <= box[2]).all()

    def test_leaf_blocks_padded_with_sentinels(self, rng):
        rects = random_rects(rng, 21)  # 21 = 2 leaves of 16 + tail of 5
        flat = flat_load_str(rects, max_entries=16)
        xmin, ymin, xmax, ymax = flat.leaf_blocks
        assert xmin.shape == (2, 16)
        assert np.isposinf(xmin[1, 5:]).all()
        assert np.isneginf(xmax[1, 5:]).all()
        # Non-pad slots carry the packed coordinates verbatim.
        assert np.array_equal(xmin.reshape(-1)[:21], flat.entry_coords[:, 0])

    def test_entry_ids_are_a_permutation(self, rects):
        flat = flat_load_str(rects)
        assert np.array_equal(np.sort(flat.entry_ids), np.arange(len(rects)))

    def test_size_bytes_counts_all_arrays(self, rects):
        flat = flat_load_str(rects)
        floor = flat.entry_coords.nbytes + flat.entry_ids.nbytes
        assert flat.size_bytes > floor

    def test_empty_tree(self):
        flat = flat_load_str(RectArray.empty())
        assert len(flat) == 0
        assert flat.height == 0
        assert flat.node_count == 0
        with pytest.raises(ValueError):
            flat.root_mbr

    def test_single_entry_tree(self):
        flat = flat_load_str(RectArray.from_rects([Rect(0.1, 0.2, 0.3, 0.4)]))
        assert flat.height == 1
        assert flat.root_mbr == (0.1, 0.2, 0.3, 0.4)

    def test_invalid_inputs_rejected(self, rects):
        with pytest.raises(ValueError, match="max_entries"):
            FlatRTree.from_order(rects, np.arange(len(rects)), max_entries=1)
        with pytest.raises(ValueError, match="permutation"):
            FlatRTree.from_order(rects, np.arange(3))

    def test_repr(self, rects):
        assert "FlatRTree" in repr(flat_load_str(rects))


class TestBitIdentity:
    """The differential contract: flat counts == object-tree counts."""

    def test_matches_object_engine(self, rng):
        pairs = [
            (random_rects(rng, n1), random_rects(rng, n2))
            for n1, n2 in [(1, 1), (40, 31), (500, 700), (2000, 900)]
        ]
        # The kernel inputs of benchmarks/bench_sampling.py.
        pairs += [
            (make_uniform(n, seed=401).rects, make_clustered(n, seed=402).rects)
            for n in (8_000, 20_000, 50_000)
        ]
        for a, b in pairs:
            want = rtree_join_count(bulk_load_str(a), bulk_load_str(b))
            assert flat_join_count(flat_load_str(a), flat_load_str(b)) == want

    def test_matches_under_hilbert_packing(self, rng):
        a, b = random_rects(rng, 600), random_rects(rng, 450)
        want = rtree_join_count(bulk_load_hilbert(a), bulk_load_hilbert(b))
        assert flat_join_count(flat_load_hilbert(a), flat_load_hilbert(b)) == want

    def test_duplicate_and_degenerate_rects(self):
        a = RectArray.from_rects([Rect(0.5, 0.5, 0.5, 0.5)] * 10)
        b = RectArray.from_rects([Rect(0.5, 0.5, 0.5, 0.5)] * 7)
        assert flat_join_count(flat_load_str(a), flat_load_str(b)) == 70

    def test_mixed_max_entries(self, rng):
        a, b = random_rects(rng, 300), random_rects(rng, 300)
        want = nested_loop_count(a, b)
        got = flat_join_count(
            flat_load_str(a, max_entries=4), flat_load_str(b, max_entries=32)
        )
        assert got == want

    def test_tiny_block_chunking_is_invisible(self, rng):
        a, b = random_rects(rng, 200), random_rects(rng, 150)
        fa, fb = flat_load_str(a), flat_load_str(b)
        want = flat_join_count(fa, fb)
        assert flat_join_count(fa, fb, block=3) == want
        assert np.array_equal(flat_join_pairs(fa, fb, block=3), flat_join_pairs(fa, fb))

    def test_block_must_be_positive(self, rects):
        flat = flat_load_str(rects)
        with pytest.raises(ValueError, match="block"):
            flat_join_count(flat, flat, block=0)
        with pytest.raises(ValueError, match="block"):
            flat_join_pairs(flat, flat, block=-1)

    def test_empty_sides(self, rects):
        flat = flat_load_str(rects)
        empty = flat_load_str(RectArray.empty())
        assert flat_join_count(flat, empty) == 0
        assert flat_join_count(empty, flat) == 0
        assert flat_join_pairs(empty, empty).shape == (0, 2)

    def test_pairs_are_canonically_ordered_payload_ids(self, rng):
        a, b = random_rects(rng, 250), random_rects(rng, 250)
        got = flat_join_pairs(flat_load_str(a), flat_load_str(b))
        assert np.array_equal(got, canonical_pair_order(nested_loop_pairs(a, b)))
        # Hilbert packing permutes the entries but not the payload ids.
        got_h = flat_join_pairs(flat_load_hilbert(a), flat_load_hilbert(b))
        assert np.array_equal(got_h, got)


class TestRuntimeIntegration:
    def test_expired_deadline_preempts_join(self, rng):
        a, b = random_rects(rng, 400, max_side=0.2), random_rects(rng, 400, max_side=0.2)
        fa, fb = flat_load_str(a), flat_load_str(b)
        with runtime_scope(deadline=Deadline(0.0)):
            with pytest.raises(EstimationTimeout):
                flat_join_count(fa, fb)

    def test_checkpoint_fires_per_block(self, rng):
        a, b = random_rects(rng, 300, max_side=0.2), random_rects(rng, 300, max_side=0.2)
        fa, fb = flat_load_str(a), flat_load_str(b)
        stages: list[str] = []

        class Recorder:
            def on_checkpoint(self, stage):
                stages.append(stage)

        with runtime_scope(hook=Recorder()):
            flat_join_count(fa, fb, block=64)
        assert "rtree.flat.descend" in stages
        assert "rtree.flat.leaf" in stages


# ----------------------------------------------------------------------
# Property: agreement with the naive oracle on adversarial small inputs.
# ----------------------------------------------------------------------

#: A tiny shared coordinate pool forces coincident edges and duplicate
#: rects; width/height 0 draws produce zero-area rects and points.
_COORD_POOL = [0.0, 0.125, 0.25, 0.5, 0.625, 0.75, 1.0]


@st.composite
def pooled_rect_arrays(draw):
    n = draw(st.integers(min_value=0, max_value=24))
    rects = []
    for _ in range(n):
        x0 = draw(st.sampled_from(_COORD_POOL))
        y0 = draw(st.sampled_from(_COORD_POOL))
        w = draw(st.sampled_from([0.0, 0.0, 0.125, 0.25]))  # 0 twice: favor degeneracy
        h = draw(st.sampled_from([0.0, 0.0, 0.125, 0.25]))
        rects.append(Rect(x0, y0, min(1.0, x0 + w), min(1.0, y0 + h)))
    return RectArray.from_rects(rects)


@settings(max_examples=80, deadline=None)
@given(pooled_rect_arrays(), pooled_rect_arrays(), st.sampled_from([2, 3, 8]))
def test_property_flat_pairs_equal_naive(a, b, max_entries):
    got = flat_join_pairs(
        flat_load_str(a, max_entries=max_entries),
        flat_load_str(b, max_entries=max_entries),
    )
    want = canonical_pair_order(nested_loop_pairs(a, b))
    assert np.array_equal(got, want)
    assert flat_join_count(
        flat_load_str(a, max_entries=max_entries),
        flat_load_str(b, max_entries=max_entries),
    ) == len(want)
