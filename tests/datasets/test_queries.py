"""Unit tests for the query-window tiling."""

import pytest

from repro.datasets import query_grid
from repro.geometry import Rect


class TestQueryGrid:
    def test_exact_tiling(self):
        tiles = list(query_grid(4))
        assert len(tiles) == 16
        total_area = sum(t.area for t in tiles)
        assert total_area == pytest.approx(1.0)

    def test_coverage_shrinks_tiles(self):
        tiles = list(query_grid(2, coverage=0.5))
        assert tiles[0].width == pytest.approx(0.25)

    def test_tiles_disjoint_under_coverage(self):
        tiles = list(query_grid(3, coverage=0.8))
        for i in range(len(tiles)):
            for j in range(i + 1, len(tiles)):
                inter = tiles[i].intersection(tiles[j])
                assert inter is None or inter.area == 0

    def test_custom_extent(self):
        extent = Rect(10, 10, 14, 18)
        tiles = list(query_grid(2, extent=extent))
        assert all(extent.contains_rect(t) for t in tiles)

    def test_validation(self):
        with pytest.raises(ValueError):
            list(query_grid(0))
        with pytest.raises(ValueError):
            list(query_grid(2, coverage=0))
