"""Work gate for the contained/spanning split every histogram build makes.

A rectangle whose cell range is one cell scatters straight to that cell;
only the rectangles whose range is wider than one cell may be expanded
into runs.  A build splits its rectangles one block at a time
(:func:`~repro.histograms.grid.rect_blocks`), so it constructs one
:class:`~repro.histograms.grid.GridRuns` per block with a spanning
rectangle.  Each is recorded with the rectangles it is built over, and
those, concatenated in order, must be exactly the spanning subset, in
input order: none at all for point data, and the spanning part of CAR
at levels 5 and 7.  No clock is read, so the gate cannot flake on a
loaded machine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import SpatialDataset, make_paper_dataset
from repro.geometry import RectArray
from repro.histograms import BasicGHHistogram, GHHistogram, Grid, PHHistogram
from repro.histograms.grid import BUILD_BLOCK, GridRuns

SCHEMES = [GHHistogram, PHHistogram, BasicGHHistogram]


@pytest.fixture
def expansions(monkeypatch) -> list[RectArray]:
    """The rectangles of every ``GridRuns`` constructed while it is live."""
    seen: list[RectArray] = []
    init = GridRuns.__init__

    def recording_init(self, grid, rects, **kwargs):
        seen.append(rects)
        init(self, grid, rects, **kwargs)

    monkeypatch.setattr(GridRuns, "__init__", recording_init)
    return seen


@pytest.fixture(scope="module")
def car() -> SpatialDataset:
    return make_paper_dataset("CAR", scale=20.0)


@pytest.fixture(scope="module")
def points() -> SpatialDataset:
    x, y = np.random.default_rng(7).uniform(0, 1, size=(2, 500))
    return SpatialDataset.from_rects("points", RectArray(x, y, x, y))


@pytest.mark.parametrize("cls", SCHEMES, ids=["gh", "ph", "gh_basic"])
@pytest.mark.parametrize("level", [5, 7])
def test_point_data_expands_nothing(expansions, points, cls, level):
    cls.build(points, level)
    assert expansions == []


@pytest.mark.parametrize("cls", SCHEMES, ids=["gh", "ph", "gh_basic"])
@pytest.mark.parametrize("level", [5, 7])
def test_only_spanning_rectangles_expand(expansions, car, cls, level):
    rects = car.rects
    i0, i1, j0, j1 = Grid(car.extent, level).cell_ranges(rects)
    spanning = np.flatnonzero((i1 > i0) | (j1 > j0))
    # Most of CAR stays inside one cell at these levels, but not all.
    assert 0 < len(spanning) < len(rects) // 2
    cls.build(car, level)
    # One expansion per block, each over that block's spanning part.
    assert len(expansions) == -(-len(rects) // BUILD_BLOCK) > 1
    for axis in ("xmin", "ymin", "xmax", "ymax"):
        expanded = np.concatenate([getattr(part, axis) for part in expansions])
        assert np.array_equal(expanded, getattr(rects, axis)[spanning]), axis
