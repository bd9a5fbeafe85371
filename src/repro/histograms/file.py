"""Histogram-file persistence.

The paper's workflow builds histogram *files* per dataset offline and
consults them at estimation time; the *building time* and *space cost*
metrics of Figure 7 measure exactly this artifact.  Histograms round-trip
through ``.npz`` files (or in-memory bytes) keyed by scheme kind.  Files
carry a ``version``: version 3 stacks GH planes in ``c, h, o, v`` order
and PH planes as per-cell sums (``num, xsum, cov, ysum`` per group);
older files (unversioned ones stacked GH ``c, o, h, v``, version 2 held
PH's Table 1 averages) are rejected rather than decoded with planes
swapped or averages read as sums.

A file can also be held *packed* (:func:`pack_histogram`): its occupied
cell ids plus every plane's values at those cells.  At fine levels most
cells of a skewed dataset are empty, so the packed copy is a fraction of
the file; :func:`unpack_histogram` restores planes that are
``tobytes()``-identical to the original, sign of zero included.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Union

import numpy as np

from ..geometry import Rect
from .gh import GHHistogram
from .gh_basic import BasicGHHistogram
from .grid import Grid
from .ph import PHHistogram

__all__ = [
    "save_histogram",
    "load_histogram",
    "histogram_to_bytes",
    "histogram_from_bytes",
    "histogram_parts",
    "histogram_from_parts",
    "PackedHistogram",
    "pack_histogram",
    "pack_if_smaller",
    "unpack_histogram",
    "STAT_PLANES",
    "HISTOGRAM_SCHEMES",
]

Histogram = Union[PHHistogram, GHHistogram, BasicGHHistogram]

#: Histogram class per scheme name — the ``scheme`` axis of cache and
#: store keys, and the one table every builder and decoder dispatches on.
HISTOGRAM_SCHEMES: Mapping[str, "type[Histogram]"] = {
    "ph": PHHistogram,
    "gh": GHHistogram,
    "gh_basic": BasicGHHistogram,
}

_KINDS = {cls: kind for kind, cls in HISTOGRAM_SCHEMES.items()}

#: ``.npz`` histogram-file version; bump whenever :data:`STAT_PLANES`
#: (or any other part of the payload layout) changes.
_FORMAT_VERSION = 3

#: Stat-plane order per kind — the row order of the stacked ``stats``
#: array produced by :func:`histogram_parts` (and stored in files).  GH's
#: order is its own block's (:attr:`GHHistogram.planes`), so ``[C|H]``
#: and ``[O|V]`` are contiguous halves of the block.  PH's is its
#: block's (:attr:`PHHistogram.planes`) too: ``[Num|X]`` and
#: ``[Cov|Y]`` are the contiguous halves of each of its two groups.
#: Both are combined by :func:`~repro.histograms.fused.cross_dot`.
STAT_PLANES: dict[str, tuple[str, ...]] = {
    "ph": ("num", "xsum", "cov", "ysum", "num_i", "xsum_i", "cov_i", "ysum_i"),
    "gh": ("c", "h", "o", "v"),
    "gh_basic": ("c", "i", "h", "v"),
}


def histogram_parts(hist: Histogram) -> tuple[dict[str, object], np.ndarray]:
    """Split a histogram into JSON-friendly scalars + one stacked array.

    Returns ``(scalars, stats)`` where ``scalars`` holds ``kind`` /
    ``level`` / ``extent`` / ``count`` (plus ``avg_span`` for PH) as
    plain Python values, and ``stats`` stacks the per-cell planes in
    :data:`STAT_PLANES` order.  For GH and PH that is the histogram's
    own ``planes`` block, returned without a copy.
    :func:`histogram_from_parts` is the exact inverse; ``repro.store``
    persists precisely these two pieces.
    """
    kind = _KINDS.get(type(hist))
    if kind is None:
        raise TypeError(f"unsupported histogram type {type(hist).__name__}")
    scalars: dict[str, object] = {
        "kind": kind,
        "level": int(hist.grid.level),
        "extent": [float(x) for x in hist.grid.extent.as_tuple()],
        "count": int(hist.count),
    }
    if isinstance(hist, PHHistogram):
        scalars["avg_span"] = float(hist.avg_span)
    if isinstance(hist, (GHHistogram, PHHistogram)):
        return scalars, hist.planes
    stats = np.stack([getattr(hist, plane) for plane in STAT_PLANES[kind]])
    return scalars, stats


def histogram_from_parts(scalars: dict[str, object], stats: np.ndarray) -> Histogram:
    """Rebuild a histogram from :func:`histogram_parts` output.

    ``stats`` may be any array-like with the right leading dimension —
    in particular a read-only ``np.memmap`` view of a store payload, in
    which case every plane is a zero-copy slice of that view (and a
    C-contiguous GH or PH ``stats`` becomes the histogram's block as is).
    """
    kind = str(scalars["kind"])
    planes = STAT_PLANES.get(kind)
    if planes is None:
        raise ValueError(f"unknown histogram kind {kind!r}")
    if stats.ndim != 2 or stats.shape[0] != len(planes):
        raise ValueError(
            f"{kind} stats must stack {len(planes)} planes, got shape {stats.shape}"
        )
    extent_vals = scalars["extent"]
    if not isinstance(extent_vals, (list, tuple)) or len(extent_vals) != 4:
        raise ValueError(f"extent must hold 4 coordinates, got {extent_vals!r}")
    grid = Grid(Rect(*(float(x) for x in extent_vals)), int(scalars["level"]))  # type: ignore[arg-type]
    if stats.shape[1] != grid.cell_count:
        raise ValueError(
            f"level-{grid.level} stats need {grid.cell_count} cells, got {stats.shape[1]}"
        )
    count = int(scalars["count"])  # type: ignore[call-overload]
    if kind == "gh":
        return GHHistogram._from_planes(grid, count, stats)
    if kind == "ph":
        avg_span = float(scalars["avg_span"])  # type: ignore[arg-type]
        return PHHistogram._from_planes(grid, count, avg_span, stats)
    fields = {plane: stats[i] for i, plane in enumerate(planes)}
    return BasicGHHistogram(grid=grid, count=count, **fields)


@dataclass(frozen=True, slots=True)
class PackedHistogram:
    """A histogram file held as its occupied cells only.

    A cell is occupied when any plane holds a value whose bits are not
    all zero (so a ``-0.0`` is kept); every other cell is ``+0.0`` in
    every plane and is restored by zero-fill.
    """

    scalars: dict[str, object]  #: :func:`histogram_parts` scalars
    cells: np.ndarray  #: ascending occupied cell ids (int32)
    values: np.ndarray  #: ``(planes, len(cells))`` in :data:`STAT_PLANES` order

    @property
    def count(self) -> int:
        """N, the rectangles the file summarizes."""
        return int(self.scalars["count"])  # type: ignore[call-overload]

    @property
    def size_bytes(self) -> int:
        """Bytes held: the cell ids plus the occupied values."""
        return self.cells.nbytes + self.values.nbytes


def _occupied(stats: np.ndarray) -> np.ndarray:
    """Ascending ids (int32) of the cells where any plane's bits are not
    all zero; reads the planes without copying them."""
    return np.flatnonzero(stats.view(np.uint64).any(axis=0)).astype(np.int32)


def pack_histogram(hist: Histogram) -> PackedHistogram:
    """``hist`` as its occupied cells; :func:`unpack_histogram` inverts it."""
    scalars, stats = histogram_parts(hist)
    stats = np.asarray(stats, dtype=np.float64)  # a store memmap gathers into plain memory
    occupied = _occupied(stats)
    return PackedHistogram(scalars, occupied, np.take(stats, occupied, axis=1))


def pack_if_smaller(hist: Histogram) -> PackedHistogram | None:
    """:func:`pack_histogram`, or ``None`` when the packed copy would not
    be smaller than ``hist``; sized from the occupied ids before any
    value is gathered."""
    scalars, stats = histogram_parts(hist)
    stats = np.asarray(stats, dtype=np.float64)
    occupied = _occupied(stats)
    if occupied.nbytes + occupied.size * len(stats) * stats.itemsize >= hist.size_bytes:
        return None
    return PackedHistogram(scalars, occupied, np.take(stats, occupied, axis=1))


def unpack_histogram(packed: PackedHistogram) -> Histogram:
    """The dense histogram: zero-fill, then one scatter of the values."""
    level = int(packed.scalars["level"])  # type: ignore[call-overload]
    stats = np.zeros((len(packed.values), 1 << (2 * level)), dtype=np.float64)
    stats[:, packed.cells] = packed.values
    return histogram_from_parts(packed.scalars, stats)


def _payload(hist: Histogram) -> dict[str, np.ndarray]:
    scalars, stats = histogram_parts(hist)
    payload: dict[str, np.ndarray] = {
        "version": np.int64(_FORMAT_VERSION),
        "kind": np.str_(str(scalars["kind"])),
        "level": np.int64(scalars["level"]),  # type: ignore[arg-type]
        "extent": np.array(scalars["extent"], dtype=np.float64),
        "count": np.int64(scalars["count"]),  # type: ignore[arg-type]
        "stats": stats,
    }
    if "avg_span" in scalars:
        payload["avg_span"] = np.float64(scalars["avg_span"])  # type: ignore[arg-type]
    return payload


def _restore(data) -> Histogram:
    files = getattr(data, "files", data)
    version = int(data["version"]) if "version" in files else None
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported histogram file version {version!r}; "
            f"this build reads version {_FORMAT_VERSION}"
        )
    scalars: dict[str, object] = {
        "kind": str(data["kind"]),
        "level": int(data["level"]),
        "extent": [float(x) for x in data["extent"]],
        "count": int(data["count"]),
    }
    if "avg_span" in files:
        scalars["avg_span"] = float(data["avg_span"])
    return histogram_from_parts(scalars, data["stats"])


def save_histogram(hist: Histogram, path: str | os.PathLike) -> Path:
    """Write a histogram file; returns the resolved path (npz suffix added)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **_payload(hist))
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_histogram(path: str | os.PathLike) -> Histogram:
    """Read a histogram written by :func:`save_histogram`."""
    with np.load(path, allow_pickle=False) as data:
        return _restore(data)


def histogram_to_bytes(hist: Histogram) -> bytes:
    """Serialize to bytes (used for exact on-disk size accounting)."""
    buf = io.BytesIO()
    np.savez(buf, **_payload(hist))
    return buf.getvalue()


def histogram_from_bytes(blob: bytes) -> Histogram:
    """Inverse of :func:`histogram_to_bytes`."""
    with np.load(io.BytesIO(blob), allow_pickle=False) as data:
        return _restore(data)
