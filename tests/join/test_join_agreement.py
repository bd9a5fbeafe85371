"""Cross-engine agreement: every exact join (the public ``join_count``
engines plus the flat SoA R-tree kernel called directly) must produce
identical results on every input shape,
including adversarial ones (touching edges, duplicates, points, heavy
skew)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import (
    make_clustered,
    make_diagonal,
    make_gaussian_clusters,
    make_grid_aligned,
    make_uniform,
)
from repro.geometry import Rect, RectArray
from repro.join import (
    join_count,
    join_pairs,
    nested_loop_count,
    nested_loop_pairs,
    plane_sweep_count,
    plane_sweep_pairs,
)
from repro.rtree import flat_join_count, flat_join_pairs, flat_load_str
from tests.conftest import random_rects


COUNTERS = {
    "auto": join_count,
    "nested": nested_loop_count,
    "sweep": plane_sweep_count,
    "rtree": lambda a, b: join_count(a, b, method="rtree"),
    "flat": lambda a, b: flat_join_count(flat_load_str(a), flat_load_str(b)),
}
PAIRERS = {
    "auto": join_pairs,
    "nested": nested_loop_pairs,
    "sweep": plane_sweep_pairs,
    "rtree": lambda a, b: join_pairs(a, b, method="rtree"),
    "flat": lambda a, b: flat_join_pairs(flat_load_str(a), flat_load_str(b)),
}


def all_counts(a, b):
    return {name: fn(a, b) for name, fn in COUNTERS.items()}


class TestRandomInputs:
    def test_uniform(self, two_rect_sets):
        a, b = two_rect_sets
        counts = all_counts(a, b)
        assert len(set(counts.values())) == 1, counts

    def test_pairs_identical(self, two_rect_sets):
        a, b = two_rect_sets
        reference = nested_loop_pairs(a, b)
        for name, fn in PAIRERS.items():
            assert np.array_equal(fn(a, b), reference), name

    def test_skewed_vs_uniform(self, rng):
        cx = 0.3 + 0.02 * rng.standard_normal(800)
        cy = 0.7 + 0.02 * rng.standard_normal(800)
        a = RectArray.from_centers(np.clip(cx, 0, 1), np.clip(cy, 0, 1), 0.01, 0.01)
        b = random_rects(rng, 800)
        counts = all_counts(a, b)
        assert len(set(counts.values())) == 1, counts

    def test_points_vs_rects(self, rng):
        a = RectArray.from_points(rng.random(500), rng.random(500))
        b = random_rects(rng, 500)
        counts = all_counts(a, b)
        assert len(set(counts.values())) == 1, counts

    def test_large_rects(self, rng):
        # Rectangles spanning large fractions of the extent stress
        # node overlap (R-tree) and active-list size (sweep).
        a = random_rects(rng, 150, max_side=0.9)
        b = random_rects(rng, 150, max_side=0.9)
        counts = all_counts(a, b)
        assert len(set(counts.values())) == 1, counts


#: Seeded dataset generators for the differential fuzz matrix — each row
#: produces a (ds1, ds2) pair with a distinct spatial pathology.
_MATRIX_PAIRS = {
    "uniform_x_uniform": lambda: (
        make_uniform(900, seed=11).rects,
        make_uniform(700, seed=12).rects,
    ),
    "clustered_x_uniform": lambda: (
        make_clustered(800, seed=21, spread=0.05).rects,
        make_uniform(800, seed=22).rects,
    ),
    "zipf_x_diagonal": lambda: (
        make_gaussian_clusters(850, seed=31, n_clusters=6).rects,
        make_diagonal(650, seed=32).rects,
    ),
    "grid_x_clustered": lambda: (
        make_grid_aligned(640, seed=41).rects,
        make_clustered(700, seed=42, spread=0.2).rects,
    ),
}


@pytest.mark.accuracy
class TestDifferentialMatrix:
    """Random datasets × every engine: counts AND pair sets must
    agree exactly.  This is the differential gate the flat SoA engine is
    held to — one seeded matrix row per spatial pathology."""

    @pytest.mark.parametrize("pair_name", sorted(_MATRIX_PAIRS))
    def test_counts_and_pairs_agree(self, pair_name):
        a, b = _MATRIX_PAIRS[pair_name]()
        reference_pairs = nested_loop_pairs(a, b)
        reference_count = nested_loop_count(a, b)
        assert reference_count == len(reference_pairs)
        for name, fn in COUNTERS.items():
            assert fn(a, b) == reference_count, f"{pair_name}: {name} count"
        for name, fn in PAIRERS.items():
            assert np.array_equal(fn(a, b), reference_pairs), f"{pair_name}: {name} pairs"


class TestEdgeCases:
    def test_empty_sides(self):
        a = RectArray.from_rects([Rect(0, 0, 1, 1)])
        empty = RectArray.empty()
        for fn in COUNTERS.values():
            assert fn(a, empty) == 0
            assert fn(empty, a) == 0
            assert fn(empty, empty) == 0
        for name, fn in PAIRERS.items():
            for left, right in ((a, empty), (empty, a), (empty, empty)):
                pairs = fn(left, right)
                assert pairs.shape == (0, 2) and pairs.dtype == np.int64, name

    def test_empty_side_above_the_small_input_cut(self, rng):
        # An empty side against 600 rectangles: ``auto`` runs the R-tree
        # join with one empty tree.
        full = random_rects(rng, 600)
        empty = RectArray.empty()
        for name, fn in COUNTERS.items():
            assert fn(full, empty) == 0, name
            assert fn(empty, full) == 0, name
        for name, fn in PAIRERS.items():
            for left, right in ((full, empty), (empty, full)):
                pairs = fn(left, right)
                assert pairs.shape == (0, 2) and pairs.dtype == np.int64, name

    def test_one_large_rect_against_many_small(self, rng):
        # One rectangle covering the extent meets every small one exactly
        # once, however many leaves (or sweep events) it overlaps.  The
        # small side is above the nested-loop cut, so ``auto`` runs the
        # R-tree join here.
        big = RectArray.from_rects([Rect(0, 0, 1, 1)])
        small = random_rects(rng, 600)
        for name, fn in COUNTERS.items():
            assert fn(big, small) == len(small), name
            assert fn(small, big) == len(small), name
        expected = np.stack([np.zeros(len(small), np.int64), np.arange(len(small))], axis=1)
        for name, fn in PAIRERS.items():
            assert np.array_equal(fn(big, small), expected), name

    def test_single_pair_touching_edge(self):
        a = RectArray.from_rects([Rect(0, 0, 1, 1)])
        b = RectArray.from_rects([Rect(1, 0, 2, 1)])
        for name, fn in COUNTERS.items():
            assert fn(a, b) == 1, name

    def test_single_pair_touching_corner(self):
        a = RectArray.from_rects([Rect(0, 0, 1, 1)])
        b = RectArray.from_rects([Rect(1, 1, 2, 2)])
        for name, fn in COUNTERS.items():
            assert fn(a, b) == 1, name

    def test_identical_coordinates_everywhere(self):
        a = RectArray.from_rects([Rect(0.5, 0.5, 0.5, 0.5)] * 10)
        b = RectArray.from_rects([Rect(0.5, 0.5, 0.5, 0.5)] * 7)
        for name, fn in COUNTERS.items():
            assert fn(a, b) == 70, name

    def test_grid_aligned_shared_edges(self):
        # A tiling where every neighbor touches: worst case for
        # closed-interval handling.
        rects = [
            Rect(i * 0.25, j * 0.25, (i + 1) * 0.25, (j + 1) * 0.25)
            for i in range(4)
            for j in range(4)
        ]
        arr = RectArray.from_rects(rects)
        counts = all_counts(arr, arr)
        assert len(set(counts.values())) == 1, counts
        # Interior cell touches 8 neighbors + itself; verify via oracle.
        assert counts["nested"] == nested_loop_count(arr, arr)

    def test_edge_touching_tiling_above_the_small_input_cut(self):
        # 24 x 24 tiles touching their neighbours along shared edges and
        # corners, joined with itself: 576 + 576 rectangles, so ``auto``
        # runs the R-tree join.  Tile (i, j) meets every (i', j') with
        # |i - i'| <= 1 and |j - j'| <= 1: 22 * 22 * 9 interior, 4 * 22 * 6
        # edge and 4 * 4 corner pairs.
        side = 24
        edges = np.arange(side + 1) / side
        i, j = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
        i, j = i.ravel(), j.ravel()
        tiles = RectArray(edges[i], edges[j], edges[i + 1], edges[j + 1])
        expected = 22 * 22 * 9 + 4 * 22 * 6 + 4 * 4
        for name, fn in COUNTERS.items():
            assert fn(tiles, tiles) == expected, name
        reference = nested_loop_pairs(tiles, tiles)
        for name, fn in PAIRERS.items():
            assert np.array_equal(fn(tiles, tiles), reference), name

    def test_degenerate_segments(self):
        a = RectArray.from_rects([Rect(0, 0.5, 1, 0.5), Rect(0.5, 0, 0.5, 1)])
        b = RectArray.from_rects([Rect(0.25, 0.25, 0.75, 0.75)])
        for name, fn in COUNTERS.items():
            assert fn(a, b) == 2, name


coords = st.floats(min_value=0, max_value=1, allow_nan=False)


@st.composite
def tiny_rect_arrays(draw):
    n = draw(st.integers(min_value=0, max_value=25))
    vals = [
        Rect.from_points(draw(coords), draw(coords), draw(coords), draw(coords))
        for _ in range(n)
    ]
    return RectArray.from_rects(vals)


@settings(max_examples=60, deadline=None)
@given(tiny_rect_arrays(), tiny_rect_arrays())
def test_property_all_engines_agree(a, b):
    counts = all_counts(a, b)
    assert len(set(counts.values())) == 1, counts


@settings(max_examples=30, deadline=None)
@given(tiny_rect_arrays(), tiny_rect_arrays())
def test_property_pairs_agree(a, b):
    reference = nested_loop_pairs(a, b)
    for name, fn in PAIRERS.items():
        assert np.array_equal(fn(a, b), reference), name
