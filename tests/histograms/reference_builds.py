"""The staged histogram builds the shipped ones replaced, kept as a reference.

Each shipped ``build`` derives cell ranges once per build, scatters the
single-cell rectangles straight to their cells and shares one axis-run
expansion of the spanning rest (:class:`~repro.histograms.grid.CellSplit`)
across every statistic.  The builds here are the earlier staging, stage by stage: every
stage re-derives its own cell indices and expansions and scatters with
``np.add.at``.  They serve two purposes:

* the ``tobytes()`` reference the shipped builds must equal (the same
  float expression trees, and incidences reaching each cell in the same
  order — for GH, the block-major, single-cell-first order of
  :meth:`GHHistogram._accumulate`, with blocks of
  :data:`~repro.histograms.grid.BUILD_BLOCK` rectangles: the block size
  is part of GH's format, while PH and basic GH are built here in one
  pass over all rectangles, since their bits do not depend on it);
* the baseline of the build-time floors in ``test_scatter.py``.

Each function takes the arguments of the shipped ``build`` and returns a
histogram of the same class.
"""

from __future__ import annotations

import numpy as np

from repro.datasets import SpatialDataset
from repro.geometry import Rect, RectArray
from repro.histograms import BasicGHHistogram, GHHistogram, Grid, PHHistogram
from repro.histograms import grid as grid_module
from repro.runtime import checkpoint

__all__ = ["gh_reference", "ph_reference", "gh_basic_reference"]


def _add_at(out: np.ndarray, idx: np.ndarray, weights: np.ndarray | None = None) -> None:
    """``out[idx] += weights`` (1.0 per index when ``weights`` is None)."""
    np.add.at(out, idx, 1.0 if weights is None else weights)


# ----------------------------------------------------------------------
# GH
def gh_reference(
    dataset: SpatialDataset, level: int, *, extent: Rect | None = None
) -> GHHistogram:
    """GH in the shipped build's accumulation order: block-major over
    consecutive blocks of ``BUILD_BLOCK`` rectangles (read at call time),
    and within a block the single-cell rectangles' O, H and V
    contributions first, in rectangle order (each one's two H and two V
    edges as its doubled bottom and left edge weights), then the
    spanning rectangles' incidences."""
    grid = Grid(extent or dataset.extent, level)
    rects = dataset.rects
    planes = np.zeros((4, grid.cell_count), dtype=np.float64)
    c, h, o, v = planes
    block = grid_module.BUILD_BLOCK
    for start in range(0, len(rects), block):
        _gh_block(grid, rects[start : start + block], c, o, h, v)
    return GHHistogram._from_planes(grid, len(rects), planes)


def _gh_block(
    grid: Grid, rects: RectArray, c: np.ndarray, o: np.ndarray, h: np.ndarray, v: np.ndarray
) -> None:
    """One block's every contribution, stage by stage."""
    checkpoint("gh.build.corners")
    _gh_corners(grid, rects, c)
    contained = grid.contained_mask(rects)
    single, spanning = rects[contained], rects[~contained]
    checkpoint("gh.build.overlaps")
    for part in (single, spanning):
        ov = grid.overlaps(part)
        _add_at(o, ov.flat, ov.clipped.areas() / grid.cell_area)
    checkpoint("gh.build.edges")
    bottom, _top, left, _right = _gh_edges(grid, single)
    _scatter_runs(h, (bottom[0], bottom[1] * 2.0))
    _scatter_runs(v, (left[0], left[1] * 2.0))
    # Each family of spanning edges scatters in one pass per axis
    # (indices and weights concatenated): bottoms then tops, lefts
    # then rights.
    bottom, top, left, right = _gh_edges(grid, spanning)
    _scatter_runs(h, bottom, top)
    _scatter_runs(v, left, right)


def _gh_corners(grid: Grid, rects: RectArray, c: np.ndarray) -> None:
    """Every MBR contributes its four corners (coincident for points)."""
    for x, y in (
        (rects.xmin, rects.ymin),
        (rects.xmax, rects.ymin),
        (rects.xmax, rects.ymax),
        (rects.xmin, rects.ymax),
    ):
        checkpoint("gh.build.corners")
        flat = grid.row_of(y) * grid.side + grid.column_of(x)
        _add_at(c, flat)


Runs = tuple[np.ndarray, np.ndarray]


def _gh_edges(grid: Grid, rects: RectArray) -> tuple[Runs, Runs, Runs, Runs]:
    """Each MBR's four edges spread over the cells they cross, as
    ``(bottom, top, left, right)`` incidence lists.

    A horizontal edge at height ``y`` lives in the cell row containing
    ``y`` and spans the cell columns of ``[xmin, xmax]``; each touched
    cell receives the clipped length normalized by the cell width.
    """
    i0 = grid.column_of(rects.xmin)
    i1 = grid.column_of(rects.xmax)
    j0 = grid.row_of(rects.ymin)
    j1 = grid.row_of(rects.ymax)
    bottom, top = (
        _spread_segments(
            starts=rects.xmin,
            ends=rects.xmax,
            lo_cell=i0,
            hi_cell=i1,
            fixed_cell=row,
            axis_origin=grid.extent.xmin,
            cell_size=grid.cell_width,
            flat_stride_fixed=grid.side,  # flat = row * side + col
            flat_stride_moving=1,
        )
        for row in (j0, j1)
    )
    left, right = (
        _spread_segments(
            starts=rects.ymin,
            ends=rects.ymax,
            lo_cell=j0,
            hi_cell=j1,
            fixed_cell=col,
            axis_origin=grid.extent.ymin,
            cell_size=grid.cell_height,
            flat_stride_fixed=1,  # flat = row * side + col
            flat_stride_moving=grid.side,
        )
        for col in (i0, i1)
    )
    return bottom, top, left, right


def _spread_segments(
    *,
    starts: np.ndarray,
    ends: np.ndarray,
    lo_cell: np.ndarray,
    hi_cell: np.ndarray,
    fixed_cell: np.ndarray,
    axis_origin: float,
    cell_size: float,
    flat_stride_fixed: int,
    flat_stride_moving: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Expand 1-D segments over the run of cells they cross.

    Each segment ``[starts, ends]`` occupies cells ``lo_cell..hi_cell``
    along its axis at a fixed cross-axis cell; every touched cell gets
    the clipped segment length divided by ``cell_size``.  Zero-length
    segments (point MBRs / degenerate edges) contribute nothing.
    Returns the ``(flat cell ids, weights)`` incidence lists for
    :func:`_scatter_runs` to accumulate.
    """
    n = len(starts)
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, np.empty(0, dtype=np.float64)
    spans = hi_cell - lo_cell + 1
    total = int(spans.sum())
    seg_rep = np.repeat(np.arange(n, dtype=np.int64), spans)
    offsets = np.concatenate([[0], np.cumsum(spans)[:-1]], dtype=np.int64)
    local = np.arange(total, dtype=np.int64) - np.repeat(offsets, spans)
    cell_idx = lo_cell[seg_rep] + local
    cell_lo = axis_origin + cell_idx * cell_size
    clipped = np.minimum(ends[seg_rep], cell_lo + cell_size) - np.maximum(
        starts[seg_rep], cell_lo
    )
    flat = fixed_cell[seg_rep] * flat_stride_fixed + cell_idx * flat_stride_moving
    return flat, np.maximum(clipped, 0.0) / cell_size


def _scatter_runs(out: np.ndarray, *runs: tuple[np.ndarray, np.ndarray]) -> None:
    """One scatter pass over the concatenated ``(flat, weights)`` runs."""
    flat = np.concatenate([r[0] for r in runs])
    weights = np.concatenate([r[1] for r in runs])
    _add_at(out, flat, weights)


# ----------------------------------------------------------------------
# PH
def ph_reference(
    dataset: SpatialDataset, level: int, *, extent: Rect | None = None
) -> PHHistogram:
    grid = Grid(extent or dataset.extent, level)
    rects = dataset.rects
    planes = np.zeros((8, grid.cell_count), dtype=np.float64)
    avg_span = _ph_sums(grid, rects, tuple(planes)) if len(rects) else 1.0
    # The shipped build's in-place scaling to cell units, unchanged.
    for group in (planes[0:4], planes[4:8]):
        group[1] /= grid.cell_width
        group[2] /= grid.cell_area
        group[3] /= grid.cell_height
    return PHHistogram._from_planes(grid, len(rects), avg_span, planes)


def _ph_sums(grid: Grid, rects: RectArray, stats: tuple[np.ndarray, ...]) -> float:
    """The Cont and Isect per-cell sums in block-row order, and AvgSpan."""
    num, w_sum, area_sum, h_sum, num_i, w_sum_i, area_sum_i, h_sum_i = stats
    checkpoint("ph.build.contained")
    contained = grid.contained_mask(rects)
    cont = rects[contained]
    if len(cont):
        flat = grid.row_of(cont.ymin) * grid.side + grid.column_of(cont.xmin)
        _add_at(num, flat)
        _add_at(area_sum, flat, cont.areas())
        _add_at(w_sum, flat, cont.widths())
        _add_at(h_sum, flat, cont.heights())
    checkpoint("ph.build.spanning")
    spanning = rects[~contained]
    if not len(spanning):
        return 1.0
    ov = grid.overlaps(spanning)
    _add_at(num_i, ov.flat)
    _add_at(area_sum_i, ov.flat, ov.clipped.areas())
    _add_at(w_sum_i, ov.flat, ov.clipped.widths())
    _add_at(h_sum_i, ov.flat, ov.clipped.heights())
    return float(grid.span_counts(spanning).mean())


# ----------------------------------------------------------------------
# Basic GH
def gh_basic_reference(
    dataset: SpatialDataset, level: int, *, extent: Rect | None = None
) -> BasicGHHistogram:
    grid = Grid(extent or dataset.extent, level)
    rects = dataset.rects
    c, i_cnt, h, v = np.zeros((4, grid.cell_count), dtype=np.float64)
    if len(rects):
        checkpoint("gh_basic.build")
        # Corners (all four per MBR).
        for x, y in (
            (rects.xmin, rects.ymin),
            (rects.xmax, rects.ymin),
            (rects.xmax, rects.ymax),
            (rects.xmin, rects.ymax),
        ):
            checkpoint("gh_basic.build.corners")
            flat = grid.row_of(y) * grid.side + grid.column_of(x)
            _add_at(c, flat)
        # MBR / cell incidences.
        ov = grid.overlaps(rects)
        _add_at(i_cnt, ov.flat)
        # Edge / cell incidences (each of the four edges separately).
        i0 = grid.column_of(rects.xmin)
        i1 = grid.column_of(rects.xmax)
        j0 = grid.row_of(rects.ymin)
        j1 = grid.row_of(rects.ymax)
        for row in (j0, j1):
            checkpoint("gh_basic.build.edges")
            _count_runs(lo=i0, hi=i1, fixed=row, stride_fixed=grid.side, stride_run=1, out=h)
        for col in (i0, i1):
            checkpoint("gh_basic.build.edges")
            _count_runs(lo=j0, hi=j1, fixed=col, stride_fixed=1, stride_run=grid.side, out=v)
    return BasicGHHistogram(grid=grid, count=len(rects), c=c, i=i_cnt, h=h, v=v)


def _count_runs(
    *,
    lo: np.ndarray,
    hi: np.ndarray,
    fixed: np.ndarray,
    stride_fixed: int,
    stride_run: int,
    out: np.ndarray,
) -> None:
    """Add 1 to every cell in each run ``lo..hi`` at a fixed cross index."""
    n = len(lo)
    if n == 0:
        return
    spans = hi - lo + 1
    total = int(spans.sum())
    seg = np.repeat(np.arange(n, dtype=np.int64), spans)
    offsets = np.concatenate([[0], np.cumsum(spans)[:-1]])
    local = np.arange(total, dtype=np.int64) - np.repeat(offsets, spans)
    run_idx = lo[seg] + local
    _add_at(out, fixed[seg] * stride_fixed + run_idx * stride_run)
