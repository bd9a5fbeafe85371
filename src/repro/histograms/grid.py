"""Regular gridding of the spatial extent (Section 3 of the paper).

All histogram schemes grid the extent into equi-sized cells with ``2^h``
vertical and ``2^h`` horizontal lines, where ``h`` is the *level* of
gridding, for a total of ``4^h`` cells.  :class:`Grid` owns that geometry.
Every histogram build walks its rectangles in consecutive blocks of at
most :data:`BUILD_BLOCK` (:func:`rect_blocks`) and splits each block
with :class:`CellSplit`: rectangles inside one cell scatter straight to
it, and only the spanning rest is expanded over cells by
:class:`GridRuns`.

Cell indexing convention: cell ``(i, j)`` covers
``[xmin + i*cw, xmin + (i+1)*cw] x [ymin + j*ch, ymin + (j+1)*ch]``;
a coordinate exactly on an interior grid line belongs to the
higher-index cell (half-open binning), and the extent's far edges belong
to the last cell.  Flat ids are row-major: ``flat = j * side + i``.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ..geometry import Rect, RectArray

__all__ = [
    "Grid", "CellOverlap", "GridRuns", "CellSplit", "MAX_LEVEL", "BUILD_BLOCK", "rect_blocks",
]

#: 4^12 = 16.7M cells (~128MB per float64 stat array) — a sane ceiling.
MAX_LEVEL = 12

#: Rectangles per build block.  A build's temporaries (cell ranges, the
#: split's index lists, the spanning runs) are sized by one block, not
#: by N, so a build allocates the same on any thread: a float64 column
#: of a block is 128 KiB.  GH's accumulation order is block-major, so
#: the value is part of its persisted bits (DESIGN §22).
BUILD_BLOCK = 16_384


@dataclass(frozen=True, slots=True)
class CellOverlap:
    """The expansion of a rectangle set over grid cells.

    One row per (rectangle, overlapped cell) incidence:

    * ``rect``: index of the rectangle in the input array,
    * ``ci`` / ``cj`` / ``flat``: the overlapped cell,
    * ``clipped``: the rectangle clipped to that cell (same row order).
    """

    rect: np.ndarray
    ci: np.ndarray
    cj: np.ndarray
    flat: np.ndarray
    clipped: RectArray


class Grid:
    """A ``2^level x 2^level`` equi-sized grid over an extent."""

    __slots__ = ("extent", "level", "side", "cell_width", "cell_height")

    def __init__(self, extent: Rect, level: int) -> None:
        if not 0 <= level <= MAX_LEVEL:
            raise ValueError(f"level must be in [0, {MAX_LEVEL}], got {level}")
        if extent.width <= 0 or extent.height <= 0:
            raise ValueError("grid extent must have positive area")
        self.extent = extent
        self.level = level
        self.side = 1 << level
        self.cell_width = extent.width / self.side
        self.cell_height = extent.height / self.side

    # ------------------------------------------------------------------
    @property
    def cell_count(self) -> int:
        return self.side * self.side

    @property
    def cell_area(self) -> float:
        return self.cell_width * self.cell_height

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return self.level == other.level and self.extent == other.extent

    def __hash__(self) -> int:
        return hash((self.level, self.extent.as_tuple()))

    def __repr__(self) -> str:
        return f"Grid(level={self.level}, side={self.side}, extent={self.extent.as_tuple()})"

    # ------------------------------------------------------------------
    def cell_rect(self, i: int, j: int) -> Rect:
        """The geometry of cell ``(i, j)``."""
        if not (0 <= i < self.side and 0 <= j < self.side):
            raise IndexError(f"cell ({i}, {j}) outside grid of side {self.side}")
        x0 = self.extent.xmin + i * self.cell_width
        y0 = self.extent.ymin + j * self.cell_height
        return Rect(x0, y0, x0 + self.cell_width, y0 + self.cell_height)

    def column_of(self, x: np.ndarray) -> np.ndarray:
        """Column indices of x-coordinates (clamped into the grid)."""
        return _cell_index(x, self.extent.xmin, self.cell_width, self.side)

    def row_of(self, y: np.ndarray) -> np.ndarray:
        """Row indices of y-coordinates (clamped into the grid)."""
        return _cell_index(y, self.extent.ymin, self.cell_height, self.side)

    def cell_ranges(
        self, rects: RectArray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Inclusive cell-index ranges ``(i0, i1, j0, j1)`` per rectangle."""
        return (
            self.column_of(rects.xmin),
            self.column_of(rects.xmax),
            self.row_of(rects.ymin),
            self.row_of(rects.ymax),
        )

    def span_counts(self, rects: RectArray) -> np.ndarray:
        """Number of cells each rectangle overlaps."""
        i0, i1, j0, j1 = self.cell_ranges(rects)
        return (i1 - i0 + 1) * (j1 - j0 + 1)

    def contained_mask(self, rects: RectArray) -> np.ndarray:
        """Mask of rectangles that lie within a single cell."""
        i0, i1, j0, j1 = self.cell_ranges(rects)
        return (i0 == i1) & (j0 == j1)

    # ------------------------------------------------------------------
    def overlaps(self, rects: RectArray) -> CellOverlap:
        """Expand rectangles over the cells they overlap, with clipping.

        The total output size is ``sum(span_counts)``; at sane levels this
        stays near ``len(rects)`` because items are small relative to
        cells.  Row order groups each rectangle's cells contiguously in
        row-major order.
        """
        n = len(rects)
        if n == 0:
            empty = np.empty(0, dtype=np.int64)
            return CellOverlap(empty, empty, empty, empty, RectArray.empty())
        i0, i1, j0, j1 = self.cell_ranges(rects)
        wx = i1 - i0 + 1
        wy = j1 - j0 + 1
        spans = wx * wy
        total = int(spans.sum())
        rect_rep = np.repeat(np.arange(n, dtype=np.int64), spans)
        starts = np.concatenate([[0], np.cumsum(spans)[:-1]])
        local = np.arange(total, dtype=np.int64) - np.repeat(starts, spans)
        w_rep = wx[rect_rep]
        ci = i0[rect_rep] + local % w_rep
        cj = j0[rect_rep] + local // w_rep
        cell_x0 = self.extent.xmin + ci * self.cell_width
        cell_y0 = self.extent.ymin + cj * self.cell_height
        clipped = RectArray(
            np.maximum(rects.xmin[rect_rep], cell_x0),
            np.maximum(rects.ymin[rect_rep], cell_y0),
            np.minimum(rects.xmax[rect_rep], cell_x0 + self.cell_width),
            np.minimum(rects.ymax[rect_rep], cell_y0 + self.cell_height),
            validate=False,
        )
        return CellOverlap(rect_rep, ci, cj, cj * self.side + ci, clipped)


def rect_blocks(rects: RectArray) -> Iterator[RectArray]:
    """Consecutive zero-copy views of at most :data:`BUILD_BLOCK`
    rectangles each, in input order.

    The views are built directly: ``RectArray.__getitem__`` copies.
    """
    block = BUILD_BLOCK
    for start in range(0, len(rects), block):
        stop = start + block
        yield RectArray(
            rects.xmin[start:stop],
            rects.ymin[start:stop],
            rects.xmax[start:stop],
            rects.ymax[start:stop],
            validate=False,
            copy=False,
        )


def _cell_index(coords: np.ndarray, origin: float, size: float, side: int) -> np.ndarray:
    """Cell indices of coordinates along one axis, clamped to ``[0, side)``.

    This is ``floor((coords - origin) / size)`` clamped: ``astype``
    truncates toward zero where ``floor`` rounds down, and the two differ
    only for negative non-integer quotients, which clip to cell 0 either
    way, so the output is identical with one fewer array pass.  The
    quotient is clamped *before* the cast, so one too large for int64
    lands in the last cell rather than overflowing.  (The division
    stays a division: a reciprocal multiply could move a coordinate on
    a cell line into the neighbouring cell.)  One expression, so that
    each temporary is freed as soon as the next one exists.
    """
    coords = np.asarray(coords, dtype=np.float64)
    return np.clip((coords - origin) / size, 0, side - 1).astype(np.int64)


def _concat_ramp(
    start: np.ndarray, spans: np.ndarray, offsets: np.ndarray, total: int
) -> np.ndarray:
    """Concatenated integer ramps ``start[k], start[k]+1, ...`` of length
    ``spans[k]`` each, as one cumulative sum (no per-run ``arange``).

    ``offsets`` are the exclusive run offsets (``offsets[k] = spans[:k].sum()``)
    — callers precompute them once and share across ramps.
    """
    delta = np.ones(total, dtype=np.int64)
    delta[0] = start[0]
    if len(start) > 1:
        delta[offsets[1:]] = start[1:] - start[:-1] - spans[:-1] + 1
    return np.cumsum(delta)


def _clip_lengths(
    lo: np.ndarray, hi: np.ndarray, cell: np.ndarray, origin: float, size: float
) -> np.ndarray:
    """Raw lengths of segments ``[lo, hi]`` clipped to cell ``cell`` of
    one axis (negative where a clamped segment lies beyond the cell).

    The expression tree of :meth:`Grid.overlaps`' clipping, so every
    build's clipped lengths are the same floats as the reference's.
    """
    start = origin + cell * size
    return np.minimum(hi, start + size) - np.maximum(lo, start)


def _run_offsets(spans: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums of ``spans`` (run start offsets)."""
    offsets = np.zeros(len(spans), dtype=np.int64)
    if len(spans) > 1:
        np.cumsum(spans[:-1], out=offsets[1:])
    return offsets


class GridRuns:
    """The rectangle-over-cells expansion of a build block's spanning rectangles.

    A build constructs one per block through :class:`CellSplit`, over
    the block's rectangles whose cell range is wider than one cell.
    Corners, overlaps and each edge family of those rectangles read
    their cell indices and runs from it, which computes, once per block,

    * the inclusive cell ranges ``(i0, i1, j0, j1)`` per rectangle,
    * one *x-run* per (rectangle, column) and one *y-run* per
      (rectangle, row) incidence — with the raw clipped segment length
      in that column/row (``clips=True``), and
    * on demand, the row-major 2-D cross product of the two run families
      — the (rectangle, cell) incidence list (:meth:`cross_flat`, with
      per-incidence values via :meth:`take_x` / :meth:`repeat_y`).

    ``np.repeat`` with per-element counts is the expensive primitive
    here, so it runs exactly once per expansion axis (building the
    segment-index map); every per-rectangle or per-run value is then a
    cheap ``take`` gather through that map.  All float expression trees
    match :meth:`Grid.overlaps` exactly, so a clipped length or area is
    the same float whichever expansion computes it.

    Run order is rectangle-major with ascending cell index; the cross
    product lists each rectangle's cells in row-major order (rows outer,
    columns inner) — the same incidence order :meth:`Grid.overlaps`
    produces, so per-bin accumulation order is unchanged too.

    The cross product never materializes a per-incidence *position*
    gather for the flat cell ids: within one y-run the ids are
    consecutive (``cy*side + i0 .. cy*side + i1``), so the whole flat
    list is itself a concatenated ramp — one cumsum instead of a
    repeat, a ramp, and two gathers.
    """

    __slots__ = (
        "grid", "i0", "i1", "j0", "j1", "wx", "wy", "offx",
        "segx", "cx", "rawx", "segy", "cy", "rawy",
        "_spans2", "_off2", "_total2", "_ixpos", "_flat2d",
    )

    def __init__(
        self,
        grid: Grid,
        rects: RectArray,
        *,
        ranges: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None,
        clips: bool = True,
    ) -> None:
        self.grid = grid
        if ranges is None:
            ranges = grid.cell_ranges(rects)
        self.i0, self.i1, self.j0, self.j1 = ranges
        self.wx = self.i1 - self.i0 + 1
        self.wy = self.j1 - self.j0 + 1
        self._spans2 = self._off2 = self._total2 = self._ixpos = self._flat2d = None
        n = len(self.i0)
        self.offx = _run_offsets(self.wx)
        self.segx = np.repeat(np.arange(n, dtype=np.int64), self.wx)
        self.cx = _concat_ramp(self.i0, self.wx, self.offx, len(self.segx))
        offy = _run_offsets(self.wy)
        self.segy = np.repeat(np.arange(n, dtype=np.int64), self.wy)
        self.cy = _concat_ramp(self.j0, self.wy, offy, len(self.segy))
        if clips:
            ext = grid.extent
            self.rawx = _clip_lengths(
                rects.xmin.take(self.segx), rects.xmax.take(self.segx),
                self.cx, ext.xmin, grid.cell_width,
            )
            self.rawy = _clip_lengths(
                rects.ymin.take(self.segy), rects.ymax.take(self.segy),
                self.cy, ext.ymin, grid.cell_height,
            )
        else:
            self.rawx = self.rawy = None

    def expand_x(self, values: np.ndarray) -> np.ndarray:
        """Per-rectangle ``values`` spread over the x-runs."""
        return values.take(self.segx)

    def expand_y(self, values: np.ndarray) -> np.ndarray:
        """Per-rectangle ``values`` spread over the y-runs."""
        return values.take(self.segy)

    def _cross_base(self) -> tuple[np.ndarray, np.ndarray, int]:
        """Per-y-run column counts, their offsets, and the 2-D total."""
        if self._spans2 is None:
            self._spans2 = self.wx.take(self.segy)
            self._off2 = _run_offsets(self._spans2)
            self._total2 = int(self._spans2.sum())
        return self._spans2, self._off2, self._total2

    def take_x(self, values: np.ndarray) -> np.ndarray:
        """Per-x-run ``values`` gathered onto the cross-product incidences."""
        if self._ixpos is None:
            spans2, off2, total = self._cross_base()
            self._ixpos = _concat_ramp(self.offx.take(self.segy), spans2, off2, total)
        return values.take(self._ixpos)

    def repeat_y(self, values: np.ndarray) -> np.ndarray:
        """Per-y-run ``values`` spread over the cross-product incidences."""
        return np.repeat(values, self._cross_base()[0])

    def cross_flat(self) -> np.ndarray:
        """Flat cell ids of the cross-product incidences (row-major)."""
        if self._flat2d is None:
            spans2, off2, total = self._cross_base()
            start = self.cy * self.grid.side + self.i0.take(self.segy)
            self._flat2d = _concat_ramp(start, spans2, off2, total)
        return self._flat2d


class CellSplit:
    """A build block's rectangles split by cell range: single-cell and spanning.

    Every histogram build splits each of its :func:`rect_blocks` here.
    A rectangle whose cell range is one cell (``i0 == i1`` and
    ``j0 == j1``) contributes to that cell alone, so its statistics
    scatter straight to :attr:`flat` with no run expansion; only the
    *spanning* rest goes through :class:`GridRuns` (:attr:`runs`,
    ``None`` when nothing spans), which reuses the cell ranges computed
    here.  The split is the one PH's ``Cont``/``Isect`` grouping (paper
    Section 3.1.2) always made; GH and basic GH take it for speed — at
    level 5, 90% of CAR's rectangles stay inside one cell.

    * ``contained``: ascending indices of the single-cell rectangles in
      the input array (index lists, not masks: one mask scan, then cheap
      ``take`` gathers for every per-group array);
    * ``ci`` / ``cj`` / ``flat``: each single-cell rectangle's cell.
    """

    __slots__ = ("grid", "rects", "contained", "ci", "cj", "flat", "runs")

    def __init__(self, grid: Grid, rects: RectArray, *, clips: bool = True) -> None:
        self.grid = grid
        self.rects = rects
        i0, i1, j0, j1 = grid.cell_ranges(rects)
        inside = (i0 == i1) & (j0 == j1)
        self.contained = np.flatnonzero(inside)
        self.ci = i0.take(self.contained)
        self.cj = j0.take(self.contained)
        self.flat = self.cj * grid.side + self.ci
        span_idx = np.flatnonzero(~inside)
        self.runs: GridRuns | None = None
        if span_idx.size:
            # Gather the spanning coordinates once (no revalidation or
            # copy) and hand over their already-computed cell ranges.
            spanning = RectArray(
                rects.xmin.take(span_idx),
                rects.ymin.take(span_idx),
                rects.xmax.take(span_idx),
                rects.ymax.take(span_idx),
                validate=False,
                copy=False,
            )
            self.runs = GridRuns(
                grid,
                spanning,
                ranges=(
                    i0.take(span_idx), i1.take(span_idx), j0.take(span_idx), j1.take(span_idx)
                ),
                clips=clips,
            )

    def contained_clips(self) -> tuple[np.ndarray, np.ndarray]:
        """Raw clipped width and height of each single-cell rectangle in
        its cell — :class:`GridRuns`' ``rawx``/``rawy`` floats."""
        rects, idx, grid = self.rects, self.contained, self.grid
        ext = grid.extent
        rawx = _clip_lengths(
            rects.xmin.take(idx), rects.xmax.take(idx), self.ci, ext.xmin, grid.cell_width
        )
        rawy = _clip_lengths(
            rects.ymin.take(idx), rects.ymax.take(idx), self.cj, ext.ymin, grid.cell_height
        )
        return rawx, rawy
