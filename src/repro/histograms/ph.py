"""Parametric Histogram (PH) scheme — paper Section 3.1.2.

PH grids the extent and applies the Aref–Samet parametric formula inside
every cell, with one crucial refinement: MBRs overlapping a cell are
split into

* ``Cont(i, j)`` — MBRs fully contained in the cell, and
* ``Isect(i, j)`` — MBRs that overlap the cell but cross its boundary;
  these participate with their *clipped* geometry (the piece inside the
  cell), i.e. rectangles spanning multiple cells are broken up at cell
  boundaries and each piece handled in its own cell.

Per cell and dataset the histogram keeps the eight Table 1 parameters
(``Num``, ``Cov``, ``Xavg``, ``Yavg`` for ``Cont`` and the primed
equivalents for ``Isect``), plus the per-dataset scalar ``AvgSpan`` (the
average number of cells spanned by boundary-crossing MBRs).  The
averages are held as per-cell sums: ``xsum = ΣW/CW`` and ``ysum =
ΣH/CH``, the group's widths and heights in cell units, so that
``Xavg = xsum·CW / Num`` and ``Yavg = ysum·CH / Num`` are derived.

Estimation evaluates the four per-cell cases (Sa: Cont x Cont, Sb:
Cont x Isect, Sc: Isect x Cont, Sd: Isect x Isect) with Equation 1
applied cell-locally.  Only Sd can count one real intersection in
several cells (both participants cross boundaries), so its sum is
divided by the mean of the two AvgSpan values — an approximate
multiple-counting correction (Equation 3).

The eight planes live as the rows of one C-contiguous ``(8, cells)``
block, :attr:`PHHistogram.planes`, in ``num, xsum, cov, ysum`` order
for ``Cont`` and then for ``Isect`` (the persisted
:data:`~repro.histograms.file.STAT_PLANES` order).  ``build``
accumulates the per-cell sums straight into the rows and scales them
to cell units in place.  With sums, Equation 1's ``N1·N2·(x1·y2 +
y1·x2)/A`` is ``X1·Y2 + Y1·X2``, so each case is
``[Num|X]1·[Cov|Y]2 + [Cov|Y]1·[Num|X]2`` over contiguous halves of
the groups, and one :func:`~repro.histograms.fused.cross_dot` call
returns all four case sums.

``Cont`` and ``Isect`` are the two halves of the
:class:`~repro.histograms.grid.CellSplit` every histogram build makes
per block of rectangles (:func:`~repro.histograms.grid.rect_blocks`):
``Cont`` sums scatter straight to each rectangle's one cell in
rectangle order, and only the spanning rectangles expand into
(rectangle, cell) incidences, rectangle-major, for the ``Isect`` sums.
The two groups are separate planes, so each plane's sums arrive in
rectangle order whatever the block size, and AvgSpan is the integer
span total over the spanning count: the build's bits do not depend on
the blocking.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..datasets import SpatialDataset
from ..geometry import Rect, RectArray
from ..runtime import checkpoint, mutate
from .fused import cross_dot
from .grid import CellSplit, Grid, rect_blocks

__all__ = ["PHHistogram", "ph_selectivity"]

#: Table 1 stores eight per-cell floats.
_PER_CELL_VALUES = 8
#: ...plus the per-dataset scalars (AvgSpan; cell area is grid metadata).
_SCALAR_VALUES = 2
#: The per-cell fields in block-row order.
_PLANES = ("num", "xsum", "cov", "ysum", "num_i", "xsum_i", "cov_i", "ysum_i")


@dataclass(frozen=True)
class PHHistogram:
    """The PH histogram file for one dataset."""

    grid: Grid
    count: int  #: N_k — dataset cardinality
    avg_span: float  #: AvgSpan_k (1.0 when nothing spans a boundary)
    # Cont(i, j) parameters, flat row-major arrays of length grid.cell_count:
    num: np.ndarray  #: Num_k
    xsum: np.ndarray  #: sum of widths / CW (Num_k · Xavg_k / CW)
    cov: np.ndarray  #: Cov_k
    ysum: np.ndarray  #: sum of heights / CH (Num_k · Yavg_k / CH)
    # Isect(i, j) parameters (clipped geometry):
    num_i: np.ndarray  #: Num'_k
    xsum_i: np.ndarray  #: Num'_k · Xavg'_k / CW
    cov_i: np.ndarray  #: Cov'_k
    ysum_i: np.ndarray  #: Num'_k · Yavg'_k / CH
    #: The eight planes as one C-contiguous ``(8, cells)`` block in the
    #: field order above; ``num`` ... ``ysum_i`` are its rows.
    planes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Planes passed one by one (a fault hook's fresh arrays, a
        # hand-built histogram) are packed once into a fresh block; the
        # package's own paths hand over a block through _from_planes.
        self._attach(np.stack([getattr(self, name) for name in _PLANES]))

    @classmethod
    def _from_planes(
        cls, grid: Grid, count: int, avg_span: float, planes: np.ndarray
    ) -> "PHHistogram":
        """The histogram over ``planes``, an ``(8, cells)`` block in field order.

        A C-contiguous block (a store memmap included) becomes the
        histogram's own without a copy; any other is copied once.
        """
        if not planes.flags.c_contiguous:
            planes = np.ascontiguousarray(planes, dtype=np.float64)
        hist = object.__new__(cls)
        object.__setattr__(hist, "grid", grid)
        object.__setattr__(hist, "count", count)
        object.__setattr__(hist, "avg_span", avg_span)
        hist._attach(planes)
        return hist

    def _attach(self, planes: np.ndarray) -> None:
        object.__setattr__(self, "planes", planes)
        for name, row in zip(_PLANES, planes):
            object.__setattr__(self, name, row)

    def __reduce__(self):
        # Pickle the block alone: pickling the row views would copy each.
        return (type(self)._from_planes, (self.grid, self.count, self.avg_span, self.planes))

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls, dataset: SpatialDataset, level: int, *, extent: Rect | None = None
    ) -> "PHHistogram":
        """Construct the histogram file at gridding level ``level``.

        ``extent`` overrides the gridded universe (it must be shared by
        both join partners); defaults to the dataset's declared extent.
        """
        grid = Grid(extent or dataset.extent, level)
        rects = dataset.rects
        # The stages accumulate the per-cell sums straight into the rows
        # of the block: rows 1-3 (and 5-7) hold width, area and height
        # sums until they are scaled to cell units in place below.
        planes = np.zeros((_PER_CELL_VALUES, grid.cell_count), dtype=np.float64)
        stats = tuple(planes)
        # Cooperative checkpoints between the vectorized stages let a
        # per-call deadline (and the fault harness) preempt the build.
        span_total = span_count = 0
        for block in rect_blocks(rects):
            total, count = cls._accumulate(grid, block, stats)
            span_total += total
            span_count += count
        avg_span = span_total / span_count if span_count else 1.0
        for group in (planes[0:4], planes[4:8]):
            group[1] /= grid.cell_width
            group[2] /= grid.cell_area
            group[3] /= grid.cell_height
        mutated = mutate("ph.build.cells", stats)
        if mutated is stats:  # no hook replaced them: still the block's rows
            return cls._from_planes(grid, len(rects), avg_span, planes)
        return cls(grid, len(rects), avg_span, *mutated)

    @staticmethod
    def _accumulate(
        grid: Grid, rects: RectArray, stats: tuple[np.ndarray, ...]
    ) -> tuple[int, int]:
        """One block's per-cell Cont and Isect sums from one cell split;
        returns the block's total cells spanned by spanning rectangles
        and their count (AvgSpan's numerator and denominator).

        ``Cont`` is the split's single-cell group, scattered straight to
        its cells; the spanning group's run expansion is shared across
        the four Isect statistics.
        """
        num, w_sum, area_sum, h_sum, num_i, w_sum_i, area_sum_i, h_sum_i = stats
        checkpoint("ph.build.contained")
        split = CellSplit(grid, rects)
        idx_c, flat = split.contained, split.flat
        if idx_c.size:  # else the Cont group is empty and adds nothing
            xmin = rects.xmin.take(idx_c)
            ymin = rects.ymin.take(idx_c)
            widths = rects.xmax.take(idx_c) - xmin
            heights = rects.ymax.take(idx_c) - ymin
            np.add.at(num, flat, 1.0)
            np.add.at(area_sum, flat, widths * heights)
            np.add.at(w_sum, flat, widths)
            np.add.at(h_sum, flat, heights)
        checkpoint("ph.build.spanning")
        runs = split.runs
        if runs is None:
            return 0, 0
        flat = runs.cross_flat()
        widths = runs.take_x(runs.rawx)
        heights = runs.repeat_y(runs.rawy)
        np.add.at(num_i, flat, 1.0)
        np.add.at(area_sum_i, flat, widths * heights)
        np.add.at(w_sum_i, flat, widths)
        np.add.at(h_sum_i, flat, heights)
        return int((runs.wx * runs.wy).sum()), len(runs.wx)

    # ------------------------------------------------------------------
    def estimate_pairs(self, other: "PHHistogram") -> float:
        """Equation 3: the estimated join result size against ``other``."""
        return self._pairs(other, (self.avg_span + other.avg_span) / 2.0)

    def estimate_pairs_uncorrected(self, other: "PHHistogram") -> float:
        """Equation 3 without the AvgSpan division (ablation knob)."""
        return self._pairs(other, 1.0)

    def _pairs(self, other: "PHHistogram", span_correction: float) -> float:
        if self.grid != other.grid:
            raise ValueError("PH histograms must share the same grid (extent and level)")
        # (Cont|Isect, [Num|X]|[Cov|Y], 2·cells) views; broadcasting this
        # file's groups against other's gives [[Sa, Sb], [Sc, Sd]].
        groups = self.planes.reshape(2, 2, -1)
        other_groups = other.planes.reshape(2, 2, -1)
        (sa, sb), (sc, sd) = cross_dot(groups[:, None], other_groups[None, :]).tolist()
        return sa + sb + sc + sd / span_correction

    def estimate_selectivity(
        self, other: "PHHistogram", *, span_correction: bool = True
    ) -> float:
        """Estimated selectivity against ``other`` (0 for empty inputs)."""
        if self.count == 0 or other.count == 0:
            return 0.0
        pairs = (
            self.estimate_pairs(other)
            if span_correction
            else self.estimate_pairs_uncorrected(other)
        )
        return pairs / (self.count * other.count)

    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        """Histogram-file size under the paper's accounting (8 floats per
        cell + 2 per-dataset scalars).  Depends only on the grid level,
        not on the data — a property the paper points out."""
        return 8 * (_PER_CELL_VALUES * self.grid.cell_count + _SCALAR_VALUES)

    @property
    def xavg(self) -> np.ndarray:
        """Xavg: the mean width of the cell's ``Cont`` MBRs (0 where none)."""
        return _average(self.xsum, self.num, self.grid.cell_width)

    @property
    def yavg(self) -> np.ndarray:
        """Yavg: the mean height of the cell's ``Cont`` MBRs (0 where none)."""
        return _average(self.ysum, self.num, self.grid.cell_height)

    @property
    def xavg_i(self) -> np.ndarray:
        """Xavg': the mean clipped width of the cell's ``Isect`` pieces."""
        return _average(self.xsum_i, self.num_i, self.grid.cell_width)

    @property
    def yavg_i(self) -> np.ndarray:
        """Yavg': the mean clipped height of the cell's ``Isect`` pieces."""
        return _average(self.ysum_i, self.num_i, self.grid.cell_height)

    def cell_arrays(self) -> dict[str, np.ndarray]:
        """The eight per-cell arrays keyed by their Table 1 names
        (the averages derived from the stored sums)."""
        return {
            "Num": self.num,
            "Cov": self.cov,
            "Xavg": self.xavg,
            "Yavg": self.yavg,
            "Num'": self.num_i,
            "Cov'": self.cov_i,
            "Xavg'": self.xavg_i,
            "Yavg'": self.yavg_i,
        }


def _average(sums: np.ndarray, num: np.ndarray, cell_size: float) -> np.ndarray:
    """Per-cell mean extent from sums in cell units; an empty cell's zero
    sum over ``max(0, 1)`` is 0."""
    return sums * cell_size / np.maximum(num, 1.0)


def ph_selectivity(
    ds1: SpatialDataset, ds2: SpatialDataset, level: int, *, extent: Rect | None = None
) -> float:
    """One-shot PH estimate (build both histograms, then combine)."""
    if extent is None:
        if ds1.extent != ds2.extent:
            raise ValueError("datasets must share a common extent (or pass one explicitly)")
        extent = ds1.extent
    h1 = PHHistogram.build(ds1, level, extent=extent)
    h2 = PHHistogram.build(ds2, level, extent=extent)
    return h1.estimate_selectivity(h2)
