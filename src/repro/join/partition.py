"""Partition-based spatial merge join (PBSM, Patel & DeWitt, SIGMOD '96).

The common extent is gridded; every rectangle is replicated into each
cell it overlaps; each cell then joins its two (small) member sets with a
dense vectorized intersection mask.  Pairs that intersect in several
cells are deduplicated with the standard *reference-point* method: a pair
is reported only by the cell containing the top-left-most corner
``(max(xmin_a, xmin_b), max(ymin_a, ymin_b))`` of its intersection — a
point that is guaranteed to fall in exactly one cell that both rectangles
were replicated into.

This is the default exact-join engine for dataset-scale ground truth: it
is typically the fastest of the exact algorithms here and its output is
bit-identical to the nested-loop oracle (tested).

**Ordering contract.**  ``partition_join_pairs`` — like every
``*_pairs`` function in :mod:`repro.join` — returns a unique ``(k, 2)``
``int64`` array sorted lexicographically by ``(a_id, b_id)``, so outputs
of different engines can be compared with ``np.array_equal``.
"""

from __future__ import annotations

import math

import numpy as np

from ..geometry import Rect, RectArray, common_extent
from ..runtime import checkpoint

__all__ = [
    "partition_join_count",
    "partition_join_pairs",
    "choose_grid_size",
    "canonical_pair_order",
]

#: Call :func:`repro.runtime.checkpoint` every this many populated cells
#: inside the cell walk, so deadlines/fault hooks get a cooperative
#: control point without paying a contextvar read per cell.
_CHECKPOINT_EVERY = 256


def choose_grid_size(n_total: int, *, target_per_cell: int = 48, max_grid: int = 512) -> int:
    """Pick a grid side so the average cell holds ``target_per_cell`` items."""
    if n_total <= 0:
        return 1
    side = int(math.ceil(math.sqrt(n_total / target_per_cell)))
    return int(np.clip(side, 1, max_grid))


def canonical_pair_order(pairs: np.ndarray) -> np.ndarray:
    """Sort a ``(k, 2)`` pair array into the library-wide canonical order.

    The contract shared by every exact engine: rows sorted
    lexicographically by ``(a_id, b_id)``.  Rows are unique by
    construction (each engine reports a pair exactly once), so the
    canonical order is a total order and equal pair *sets* compare equal
    with ``np.array_equal`` after this sort.
    """
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return pairs[order]


def _cell_ranges(
    rects: RectArray, extent: Rect, grid: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Inclusive cell-index ranges ``(i0, i1, j0, j1)`` per rectangle."""
    cw = extent.width / grid
    ch = extent.height / grid
    i0 = np.clip(np.floor((rects.xmin - extent.xmin) / cw).astype(np.int64), 0, grid - 1)
    i1 = np.clip(np.floor((rects.xmax - extent.xmin) / cw).astype(np.int64), 0, grid - 1)
    j0 = np.clip(np.floor((rects.ymin - extent.ymin) / ch).astype(np.int64), 0, grid - 1)
    j1 = np.clip(np.floor((rects.ymax - extent.ymin) / ch).astype(np.int64), 0, grid - 1)
    return i0, i1, j0, j1


def _replicate(
    rects: RectArray, extent: Rect, grid: int
) -> tuple[np.ndarray, np.ndarray]:
    """Expand rectangles into (cell_id, rect_id) replica pairs."""
    i0, i1, j0, j1 = _cell_ranges(rects, extent, grid)
    wx = i1 - i0 + 1
    wy = j1 - j0 + 1
    spans = wx * wy
    total = int(spans.sum())
    rect_rep = np.repeat(np.arange(len(rects), dtype=np.int64), spans)
    starts = np.concatenate([[0], np.cumsum(spans)[:-1]])
    local = np.arange(total, dtype=np.int64) - np.repeat(starts, spans)
    w_rep = wx[rect_rep]
    ci = i0[rect_rep] + local % w_rep
    cj = j0[rect_rep] + local // w_rep
    cells = cj * grid + ci
    return cells, rect_rep


def _grouped(cells: np.ndarray, rect_ids: np.ndarray):
    """Sort replicas by cell and return (unique_cells, group_starts, sorted_ids)."""
    order = np.argsort(cells, kind="stable")
    sorted_cells = cells[order]
    sorted_ids = rect_ids[order]
    unique_cells, starts = np.unique(sorted_cells, return_index=True)
    return unique_cells, starts, sorted_ids


def _run(
    a: RectArray,
    b: RectArray,
    *,
    grid: int | None,
    extent: Rect | None,
    collect_pairs: bool,
) -> tuple[int, list[np.ndarray]]:
    """Join every grid cell populated on both sides.

    Returns ``(count, pair_chunks)``.  Pair chunks are in cell order,
    *not* canonical order — callers concatenate and apply
    :func:`canonical_pair_order`.
    """
    if len(a) == 0 or len(b) == 0:
        return 0, []
    if extent is None:
        extent = common_extent(a, b)
    if grid is None:
        grid = choose_grid_size(len(a) + len(b))
    checkpoint("join.partition.replicate")
    cells_a, ids_a = _replicate(a, extent, grid)
    cells_b, ids_b = _replicate(b, extent, grid)
    ucells_a, starts_a, sids_a = _grouped(cells_a, ids_a)
    ucells_b, starts_b, sids_b = _grouped(cells_b, ids_b)
    ends_a = np.append(starts_a[1:], len(sids_a))
    ends_b = np.append(starts_b[1:], len(sids_b))

    # Walk only the cells populated on both sides.
    common_cells, pos_a, pos_b = np.intersect1d(
        ucells_a, ucells_b, assume_unique=True, return_indices=True
    )
    cw = extent.width / grid
    ch = extent.height / grid
    count = 0
    chunks: list[np.ndarray] = []
    for c_idx in range(len(common_cells)):
        if c_idx % _CHECKPOINT_EVERY == 0:
            checkpoint("join.partition.cells")
        cell = int(common_cells[c_idx])
        ga = sids_a[starts_a[pos_a[c_idx]] : ends_a[pos_a[c_idx]]]
        gb = sids_b[starts_b[pos_b[c_idx]] : ends_b[pos_b[c_idx]]]
        mask = (
            (a.xmin[ga][:, None] <= b.xmax[gb][None, :])
            & (b.xmin[gb][None, :] <= a.xmax[ga][:, None])
            & (a.ymin[ga][:, None] <= b.ymax[gb][None, :])
            & (b.ymin[gb][None, :] <= a.ymax[ga][:, None])
        )
        ia, ib = np.nonzero(mask)
        if not len(ia):
            continue
        ra, rb = ga[ia], gb[ib]
        # Reference-point dedup: keep pairs whose intersection's
        # (max xmin, max ymin) corner falls in this very cell.
        rx = np.maximum(a.xmin[ra], b.xmin[rb])
        ry = np.maximum(a.ymin[ra], b.ymin[rb])
        ref_ci = np.clip(np.floor((rx - extent.xmin) / cw).astype(np.int64), 0, grid - 1)
        ref_cj = np.clip(np.floor((ry - extent.ymin) / ch).astype(np.int64), 0, grid - 1)
        keep = (ref_cj * grid + ref_ci) == cell
        kept = int(np.count_nonzero(keep))
        if not kept:
            continue
        count += kept
        if collect_pairs:
            chunks.append(np.stack([ra[keep], rb[keep]], axis=1))
    return count, chunks


def partition_join_count(
    a: RectArray,
    b: RectArray,
    *,
    grid: int | None = None,
    extent: Rect | None = None,
) -> int:
    """Exact intersecting-pair count via PBSM."""
    count, _ = _run(a, b, grid=grid, extent=extent, collect_pairs=False)
    return count


def partition_join_pairs(
    a: RectArray,
    b: RectArray,
    *,
    grid: int | None = None,
    extent: Rect | None = None,
) -> np.ndarray:
    """All intersecting pairs in canonical ``(a_id, b_id)``-lexicographic order."""
    _, chunks = _run(a, b, grid=grid, extent=extent, collect_pairs=True)
    if not chunks:
        return np.empty((0, 2), dtype=np.int64)
    return canonical_pair_order(np.concatenate(chunks, axis=0))
