"""Basic Geometric Histogram — paper Section 3.2.1 (Equation 4).

The didactic precursor of the revised GH scheme: per cell it keeps raw
*counts* instead of normalized ratios —

* ``C`` — corner points of MBRs lying inside the cell,
* ``I`` — MBRs intersecting the cell,
* ``H`` — horizontal MBR edges passing through the cell,
* ``V`` — vertical MBR edges passing through the cell —

and estimates the intersection points as (Equation 4):

    N_ab = sum_ij  Ca*Ib + Ia*Cb + Va*Hb + Ha*Vb

This implicitly assumes that, within a cell, every corner of one dataset
falls inside every MBR of the other and every horizontal edge crosses
every vertical edge — accurate only at very fine gridding (Figure 4
illustrates the false/multiple counting at coarse grids).  The revised
:class:`~repro.histograms.gh.GHHistogram` replaces the raw counts with
uniformity-weighted ratios; this class exists for the paper's worked
example (Figure 3) and the basic-vs-revised ablation benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets import SpatialDataset
from ..geometry import Rect, RectArray
from ..runtime import checkpoint, mutate
from .grid import CellSplit, Grid, rect_blocks

__all__ = ["BasicGHHistogram", "gh_basic_selectivity"]


@dataclass(frozen=True)
class BasicGHHistogram:
    """Per-cell raw counts for the basic GH estimator."""

    grid: Grid
    count: int
    c: np.ndarray  #: corner points per cell
    i: np.ndarray  #: MBRs intersecting each cell
    h: np.ndarray  #: horizontal edges passing through each cell
    v: np.ndarray  #: vertical edges passing through each cell

    @classmethod
    def build(
        cls, dataset: SpatialDataset, level: int, *, extent: Rect | None = None
    ) -> "BasicGHHistogram":
        grid = Grid(extent or dataset.extent, level)
        rects = dataset.rects
        cells = grid.cell_count
        c = np.zeros(cells, dtype=np.float64)
        i_cnt = np.zeros(cells, dtype=np.float64)
        h = np.zeros(cells, dtype=np.float64)
        v = np.zeros(cells, dtype=np.float64)
        for block in rect_blocks(rects):
            checkpoint("gh_basic.build")
            cls._accumulate(grid, block, c, i_cnt, h, v)
        c, i_cnt, h, v = mutate("gh_basic.build.cells", (c, i_cnt, h, v))
        return cls(grid=grid, count=len(rects), c=c, i=i_cnt, h=h, v=v)

    @staticmethod
    def _accumulate(
        grid: Grid,
        rects: RectArray,
        c: np.ndarray,
        i_cnt: np.ndarray,
        h: np.ndarray,
        v: np.ndarray,
    ) -> None:
        """One block's cell split feeding all four counts (see
        :meth:`GHHistogram._accumulate`); every one is an exact integer
        count, so scatter order and blocking are free: a single-cell
        rectangle adds 4 corners, 1 incidence and 2 edges of each
        direction to its cell, and only spanning rectangles expand into
        runs."""
        split = CellSplit(grid, rects, clips=False)
        if split.contained.size:
            np.add.at(c, split.flat, 4.0)
            np.add.at(i_cnt, split.flat, 1.0)
            np.add.at(h, split.flat, 2.0)
            np.add.at(v, split.flat, 2.0)
        runs = split.runs
        if runs is None:
            return
        rows0 = runs.j0 * grid.side
        rows1 = runs.j1 * grid.side
        np.add.at(c, rows0 + runs.i0, 1.0)
        np.add.at(c, rows0 + runs.i1, 1.0)
        np.add.at(c, rows1 + runs.i1, 1.0)
        np.add.at(c, rows1 + runs.i0, 1.0)
        np.add.at(i_cnt, runs.cross_flat(), 1.0)
        np.add.at(h, runs.expand_x(rows0) + runs.cx, 1.0)
        np.add.at(h, runs.expand_x(rows1) + runs.cx, 1.0)
        rowterm = runs.cy * grid.side
        np.add.at(v, rowterm + runs.expand_y(runs.i0), 1.0)
        np.add.at(v, rowterm + runs.expand_y(runs.i1), 1.0)

    # ------------------------------------------------------------------
    def estimate_intersection_points(self, other: "BasicGHHistogram") -> float:
        """Equation 4."""
        if self.grid != other.grid:
            raise ValueError("histograms must share the same grid (extent and level)")
        return float(
            (self.c * other.i + self.i * other.c + self.v * other.h + self.h * other.v).sum()
        )

    def estimate_pairs(self, other: "BasicGHHistogram") -> float:
        """Estimated intersecting pairs (Equation 4 divided by four)."""
        return self.estimate_intersection_points(other) / 4.0

    def estimate_selectivity(self, other: "BasicGHHistogram") -> float:
        """Estimated selectivity against ``other`` (0 for empty inputs)."""
        if self.count == 0 or other.count == 0:
            return 0.0
        return self.estimate_pairs(other) / (self.count * other.count)

    @property
    def size_bytes(self) -> int:
        return 8 * 4 * self.grid.cell_count


def gh_basic_selectivity(
    ds1: SpatialDataset, ds2: SpatialDataset, level: int, *, extent: Rect | None = None
) -> float:
    """One-shot basic-GH estimate."""
    if extent is None:
        if ds1.extent != ds2.extent:
            raise ValueError("datasets must share a common extent (or pass one explicitly)")
        extent = ds1.extent
    h1 = BasicGHHistogram.build(ds1, level, extent=extent)
    h2 = BasicGHHistogram.build(ds2, level, extent=extent)
    return h1.estimate_selectivity(h2)
