"""Unit tests for the grid machinery underlying PH and GH."""

import warnings

import numpy as np
import pytest

from repro.geometry import Rect, RectArray
from repro.histograms import MAX_LEVEL, Grid
from tests.conftest import random_rects


class TestGeometry:
    def test_level_zero_single_cell(self):
        grid = Grid(Rect.unit(), 0)
        assert grid.side == 1
        assert grid.cell_count == 1
        assert grid.cell_rect(0, 0) == Rect.unit()

    def test_cell_counts_are_powers_of_four(self):
        for level in range(5):
            assert Grid(Rect.unit(), level).cell_count == 4**level

    def test_cell_dimensions(self):
        grid = Grid(Rect(0, 0, 8, 4), 2)
        assert grid.cell_width == 2.0
        assert grid.cell_height == 1.0
        assert grid.cell_area == 2.0

    def test_cell_rect_tiling(self):
        grid = Grid(Rect.unit(), 1)
        assert grid.cell_rect(0, 0) == Rect(0, 0, 0.5, 0.5)
        assert grid.cell_rect(1, 1) == Rect(0.5, 0.5, 1, 1)

    def test_cell_rect_out_of_range(self):
        with pytest.raises(IndexError):
            Grid(Rect.unit(), 1).cell_rect(2, 0)

    def test_invalid_level(self):
        with pytest.raises(ValueError):
            Grid(Rect.unit(), -1)
        with pytest.raises(ValueError):
            Grid(Rect.unit(), MAX_LEVEL + 1)

    def test_degenerate_extent_rejected(self):
        with pytest.raises(ValueError):
            Grid(Rect(0, 0, 0, 1), 2)

    def test_equality_and_hash(self):
        assert Grid(Rect.unit(), 3) == Grid(Rect.unit(), 3)
        assert Grid(Rect.unit(), 3) != Grid(Rect.unit(), 4)
        assert hash(Grid(Rect.unit(), 3)) == hash(Grid(Rect.unit(), 3))


class TestIndexing:
    def test_interior_point(self):
        grid = Grid(Rect.unit(), 2)  # 4x4
        assert grid.column_of(np.array([0.3]))[0] == 1
        assert grid.row_of(np.array([0.8]))[0] == 3

    def test_gridline_belongs_to_higher_cell(self):
        grid = Grid(Rect.unit(), 2)
        assert grid.column_of(np.array([0.25]))[0] == 1

    def test_far_edge_clamped_to_last_cell(self):
        grid = Grid(Rect.unit(), 2)
        assert grid.column_of(np.array([1.0]))[0] == 3
        assert grid.row_of(np.array([1.0]))[0] == 3

    def test_out_of_extent_clamped(self):
        grid = Grid(Rect.unit(), 2)
        assert grid.column_of(np.array([-5.0]))[0] == 0
        assert grid.column_of(np.array([5.0]))[0] == 3

    def test_int64_overflowing_quotient_clamped(self):
        """A quotient too large for int64 lands in the last cell (the
        cast used to wrap it into cell 0 with a RuntimeWarning)."""
        grid = Grid(Rect.unit(), 9)
        coords = np.array([5.0, 1e16, 2e16, 1e300, -1e300])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert grid.column_of(coords).tolist() == [511, 511, 511, 511, 0]
            assert grid.row_of(coords).tolist() == [511, 511, 511, 511, 0]

    @pytest.mark.parametrize("level", [0, 3, 9])
    def test_in_range_cells_unchanged_by_the_clamp(self, level):
        """Clamping before the cast moves no cell of a representable
        quotient: the old cast-then-clamp expression, verbatim, agrees."""
        grid = Grid(Rect(-3.0, 2.0, 5.0, 7.0), level)
        rng = np.random.default_rng(level)
        lines = -3.0 + np.arange(grid.side + 1) * grid.cell_width
        xs = np.concatenate([rng.uniform(-20.0, 20.0, 5000), lines])
        quotient = (xs - grid.extent.xmin) / grid.cell_width
        old = np.clip(quotient.astype(np.int64), 0, grid.side - 1)
        assert np.array_equal(grid.column_of(xs), old)

    def test_cell_ranges(self):
        grid = Grid(Rect.unit(), 2)
        rects = RectArray.from_rects([Rect(0.1, 0.1, 0.6, 0.3)])
        i0, i1, j0, j1 = grid.cell_ranges(rects)
        assert (i0[0], i1[0], j0[0], j1[0]) == (0, 2, 0, 1)

    def test_span_counts(self):
        grid = Grid(Rect.unit(), 2)
        rects = RectArray.from_rects(
            [Rect(0.1, 0.1, 0.2, 0.2), Rect(0.1, 0.1, 0.6, 0.3)]
        )
        assert grid.span_counts(rects).tolist() == [1, 6]

    def test_contained_mask(self):
        grid = Grid(Rect.unit(), 2)
        rects = RectArray.from_rects(
            [Rect(0.1, 0.1, 0.2, 0.2), Rect(0.1, 0.1, 0.6, 0.3)]
        )
        assert grid.contained_mask(rects).tolist() == [True, False]


class TestOverlaps:
    def test_expansion_covers_all_cells(self):
        grid = Grid(Rect.unit(), 1)
        rects = RectArray.from_rects([Rect(0.25, 0.25, 0.75, 0.75)])
        ov = grid.overlaps(rects)
        assert sorted(ov.flat.tolist()) == [0, 1, 2, 3]
        assert np.all(ov.rect == 0)

    def test_clipped_areas_sum_to_rect_area(self, rng):
        """Clipping at cell boundaries is a partition of each rectangle:
        the additive property both histogram schemes depend on."""
        grid = Grid(Rect.unit(), 3)
        rects = random_rects(rng, 200, max_side=0.3)
        ov = grid.overlaps(rects)
        per_rect = np.zeros(len(rects))
        np.add.at(per_rect, ov.rect, ov.clipped.areas())
        assert np.allclose(per_rect, rects.areas())

    def test_clipped_pieces_inside_their_cells(self, rng):
        grid = Grid(Rect.unit(), 2)
        rects = random_rects(rng, 100, max_side=0.5)
        ov = grid.overlaps(rects)
        for k in range(len(ov.flat)):
            cell = grid.cell_rect(int(ov.ci[k]), int(ov.cj[k]))
            assert cell.contains_rect(ov.clipped[k])

    def test_empty_input(self):
        ov = Grid(Rect.unit(), 2).overlaps(RectArray.empty())
        assert len(ov.flat) == 0
        assert len(ov.clipped) == 0

    def test_flat_index_consistency(self, rng):
        grid = Grid(Rect.unit(), 4)
        ov = grid.overlaps(random_rects(rng, 50))
        assert np.array_equal(ov.flat, ov.cj * grid.side + ov.ci)

    def test_point_rects_single_cell(self, rng):
        grid = Grid(Rect.unit(), 3)
        points = RectArray.from_points(rng.random(50), rng.random(50))
        ov = grid.overlaps(points)
        assert len(ov.flat) == 50  # one cell each
        assert np.all(ov.clipped.areas() == 0)
