"""Geometric Histogram (GH) scheme — the paper's main contribution
(Section 3.2.2, "Revised GH").

GH estimates the number of *intersection points* between the two
datasets and divides by four: every intersecting MBR pair produces an
intersection rectangle with exactly four corners, each arising either
from (a) a corner of one MBR inside the other, or (b) a horizontal edge
of one MBR crossing a vertical edge of the other.

Per cell ``(i, j)`` the histogram stores the four Table 2 statistics:

* ``C`` — number of MBR corner points falling within the cell;
* ``O`` — sum over MBRs overlapping the cell of (clipped area / cell area);
* ``H`` — sum over horizontal MBR edges crossing the cell of
  (clipped edge length / cell width); each MBR contributes its bottom
  and top edge separately;
* ``V`` — the vertical analogue (clipped length / cell height).

Under the within-cell uniformity assumption,

* a corner point lands inside a given MBR's clipped region with
  probability (clipped area / cell area), so ``C1*O2 + C2*O1`` estimates
  the corner-containment points, and
* a horizontal segment of length ``h`` crosses a vertical segment of
  length ``v`` dropped uniformly in the cell with probability
  ``h*v / (CW*CH)`` (the degenerate zero-area case of Equation 1), so
  ``H1*V2 + H2*V1`` estimates the edge-crossing points.

Summing over cells gives the intersection-point estimate (Equation 5):

    IP = sum_ij C1*O2 + C2*O1 + H1*V2 + H2*V1

and the selectivity estimate is ``IP / 4 / (N1 * N2)``.  Unlike PH, GH's
statistics are *additive across cell boundaries* (a split edge's pieces
sum to the whole), so refining the grid only reduces error — the paper's
key stability argument (Figure 7).

The four planes live as the rows of one C-contiguous ``(4, cells)``
block, :attr:`GHHistogram.planes`, in ``c, h, o, v`` order.  Equation 5
pairs ``C`` with ``O`` and ``H`` with ``V``, so ``[C|H]`` (rows 0-1) and
``[O|V]`` (rows 2-3) are each one contiguous run of ``2·cells`` floats
and ``IP(a, b) = [Ca|Ha]·[Ob|Vb] + [Cb|Hb]·[Oa|Va]`` is one
:func:`~repro.histograms.fused.cross_dot` on views of the blocks.

**Accumulation order.**  A build walks its rectangles in consecutive
blocks of at most :data:`~repro.histograms.grid.BUILD_BLOCK` (16 384)
and splits each block once
(:class:`~repro.histograms.grid.CellSplit`).  Its float planes are
sums, so their bits depend on the order in which contributions reach a
cell, and that order is part of the build's contract (the store's
``FORMAT_VERSION`` 5 pins it; ``tests/histograms/reference_builds.py``
reproduces it stage by stage).  The order is block-major: each block
adds all of its contributions before the next block adds any, and
within a block

* ``O``: the single-cell rectangles' clipped areas, in rectangle order,
  then the spanning rectangles' (rectangle, cell) incidences,
  rectangle-major with each rectangle's cells row-major;
* ``H``: the single-cell rectangles' doubled bottom-edge weights
  ``(max(rawx, 0) / CW) * 2.0`` in rectangle order (a single-cell
  rectangle's top edge is the same segment in the same cell, and
  doubling is exact), then every spanning bottom-edge run, then every
  spanning top-edge run;
* ``V``: the same with left edges, then spanning lefts, then rights;
* ``C`` holds exact small integers (4 per single-cell rectangle, one
  per spanning corner), so its order is free.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..datasets import SpatialDataset
from ..geometry import Rect, RectArray
from ..runtime import checkpoint, mutate
from .fused import cross_dot
from .grid import CellSplit, Grid, rect_blocks

__all__ = ["GHHistogram", "gh_selectivity"]

#: Table 2 stores four per-cell floats.
_PER_CELL_VALUES = 4


@dataclass(frozen=True)
class GHHistogram:
    """The GH histogram file for one dataset (Table 2 statistics)."""

    grid: Grid
    count: int  #: N_k — dataset cardinality
    c: np.ndarray  #: C(i, j): corner points per cell
    o: np.ndarray  #: O(i, j): sum of clipped-area ratios
    h: np.ndarray  #: H(i, j): sum of horizontal-edge length ratios
    v: np.ndarray  #: V(i, j): sum of vertical-edge length ratios
    #: The four planes as one C-contiguous ``(4, cells)`` block in
    #: ``c, h, o, v`` order; ``c``, ``h``, ``o`` and ``v`` are its rows.
    planes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Planes passed one by one (a fault hook's fresh arrays, a
        # hand-built histogram) are packed once into a fresh block; the
        # package's own paths hand over a block through _from_planes.
        self._attach(np.stack((self.c, self.h, self.o, self.v)))

    @classmethod
    def _from_planes(cls, grid: Grid, count: int, planes: np.ndarray) -> "GHHistogram":
        """The histogram over ``planes``, a ``(4, cells)`` block in ``c, h, o, v`` order.

        A C-contiguous block (a store memmap included) becomes the
        histogram's own without a copy; any other is copied once.
        """
        if not planes.flags.c_contiguous:
            planes = np.ascontiguousarray(planes, dtype=np.float64)
        hist = object.__new__(cls)
        object.__setattr__(hist, "grid", grid)
        object.__setattr__(hist, "count", count)
        hist._attach(planes)
        return hist

    def _attach(self, planes: np.ndarray) -> None:
        c, h, o, v = planes
        for name, value in (("planes", planes), ("c", c), ("h", h), ("o", o), ("v", v)):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # Pickle the block alone: pickling the row views would copy each.
        return (type(self)._from_planes, (self.grid, self.count, self.planes))

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, dataset: SpatialDataset, level: int, *, extent: Rect | None = None
    ) -> "GHHistogram":
        """Construct the histogram file at gridding level ``level``."""
        grid = Grid(extent or dataset.extent, level)
        rects = dataset.rects
        # The stages accumulate straight into the rows of the block.
        planes = np.zeros((_PER_CELL_VALUES, grid.cell_count), dtype=np.float64)
        c, h, o, v = planes
        # Cooperative checkpoints between the vectorized stages let a
        # per-call deadline (and the fault harness) preempt the build.
        for block in rect_blocks(rects):
            cls._accumulate(grid, block, c, o, h, v)
        stats = (c, o, h, v)
        mutated = mutate("gh.build.cells", stats)
        if mutated is stats:  # no hook replaced them: still the block's rows
            return cls._from_planes(grid, len(rects), planes)
        c, o, h, v = mutated
        return cls(grid=grid, count=len(rects), c=c, o=o, h=h, v=v)

    @staticmethod
    def _accumulate(
        grid: Grid,
        rects: RectArray,
        c: np.ndarray,
        o: np.ndarray,
        h: np.ndarray,
        v: np.ndarray,
    ) -> None:
        """One block's cell split feeding all four statistics, in the
        module's accumulation order: single-cell rectangles scatter
        straight to their cells, and only spanning ones expand into runs.

        Each block adds everything it contributes, so a call's
        temporaries are sized by the block and freed before the next
        block starts (DESIGN §22).
        """
        checkpoint("gh.build.corners")
        split = CellSplit(grid, rects)
        runs = split.runs
        # With no single-cell rectangle (a small maintenance delta of
        # large ones, a coarse level) their stage adds nothing: skip it.
        single = split.contained.size > 0
        # Corner counts are exact small integers in float64 — order-free,
        # so a single-cell rectangle's four corners are one +4.0 and the
        # four spanning corner families scatter independently.
        if single:
            np.add.at(c, split.flat, 4.0)
        if runs is not None:
            rows0 = runs.j0 * grid.side
            rows1 = runs.j1 * grid.side
            np.add.at(c, rows0 + runs.i0, 1.0)
            np.add.at(c, rows0 + runs.i1, 1.0)
            np.add.at(c, rows1 + runs.i1, 1.0)
            np.add.at(c, rows1 + runs.i0, 1.0)
        checkpoint("gh.build.overlaps")
        if single:
            rawx, rawy = split.contained_clips()
            np.add.at(o, split.flat, rawx * rawy / grid.cell_area)
        if runs is not None:
            np.add.at(
                o,
                runs.cross_flat(),
                runs.take_x(runs.rawx) * runs.repeat_y(runs.rawy) / grid.cell_area,
            )
        checkpoint("gh.build.edges")
        # A single-cell rectangle's two horizontal edges are one segment
        # counted twice in one cell: its bottom edge's weight, doubled
        # (exact), in rectangle order before any spanning edge.
        if single:
            np.add.at(h, split.flat, np.maximum(rawx, 0.0) / grid.cell_width * 2.0)
            np.add.at(v, split.flat, np.maximum(rawy, 0.0) / grid.cell_height * 2.0)
        if runs is None:
            return
        # Spanning horizontal edges: bottom (row j0) then top (row j1)
        # share one run expansion and one weights array, and each cell
        # receives its bottoms before its tops.
        weights = np.maximum(runs.rawx, 0.0) / grid.cell_width
        np.add.at(h, runs.expand_x(rows0) + runs.cx, weights)
        np.add.at(h, runs.expand_x(rows1) + runs.cx, weights)
        # Vertical edges: left (column i0) then right (column i1).
        weights = np.maximum(runs.rawy, 0.0) / grid.cell_height
        rowterm = runs.cy * grid.side
        np.add.at(v, rowterm + runs.expand_y(runs.i0), weights)
        np.add.at(v, rowterm + runs.expand_y(runs.i1), weights)

    # ------------------------------------------------------------------
    def estimate_intersection_points(self, other: "GHHistogram") -> float:
        """Equation 5: estimated number of intersection points."""
        if self.grid != other.grid:
            raise ValueError("GH histograms must share the same grid (extent and level)")
        # [C1|H1]·[O2|V2] + [C2|H2]·[O1|V1]: the block's halves are views.
        return float(cross_dot(self.planes.reshape(2, -1), other.planes.reshape(2, -1)))

    def estimate_pairs(self, other: "GHHistogram") -> float:
        """Estimated number of intersecting pairs (points / 4)."""
        return self.estimate_intersection_points(other) / 4.0

    def estimate_selectivity(self, other: "GHHistogram") -> float:
        """Estimated selectivity against ``other`` (0 for empty inputs)."""
        if self.count == 0 or other.count == 0:
            return 0.0
        return self.estimate_pairs(other) / (self.count * other.count)

    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        """Histogram-file size: 4 floats per cell (level-dependent only)."""
        return 8 * _PER_CELL_VALUES * self.grid.cell_count

    def cell_arrays(self) -> dict[str, np.ndarray]:
        """The four per-cell arrays keyed by their Table 2 names."""
        return {"C": self.c, "O": self.o, "H": self.h, "V": self.v}


def gh_selectivity(
    ds1: SpatialDataset, ds2: SpatialDataset, level: int, *, extent: Rect | None = None
) -> float:
    """One-shot GH estimate (build both histograms, then combine)."""
    if extent is None:
        if ds1.extent != ds2.extent:
            raise ValueError("datasets must share a common extent (or pass one explicitly)")
        extent = ds1.extent
    h1 = GHHistogram.build(ds1, level, extent=extent)
    h2 = GHHistogram.build(ds2, level, extent=extent)
    return h1.estimate_selectivity(h2)
