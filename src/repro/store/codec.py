"""Artifact ⇄ array-mapping codecs for the persistent catalog.

The catalog stores every artifact as a directory of raw ``.npy`` files
plus a JSON manifest; this module owns the translation between live
objects and that ``(params, arrays)`` split:

* histograms round-trip through
  :func:`repro.histograms.file.histogram_parts` — one stacked
  ``stats`` array per histogram, so a warm open maps a *single* file
  read-only and every stat plane is a zero-copy slice of that view;
* flat trees round-trip through :meth:`FlatRTree.to_blocks` /
  :meth:`~FlatRTree.from_blocks` — per-level MBR/start/count vectors
  plus the four child-coordinate planes stacked into one file per
  level, stored verbatim (padding included) so re-loaded joins are
  bit-identical.

Decoders validate shape/dtype/param consistency and raise
:class:`ValueError` on any disagreement; the catalog converts that into
a corrupt-entry miss rather than serving a torn artifact.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..histograms.file import Histogram, histogram_from_parts, histogram_parts
from ..rtree import FlatRTree

__all__ = [
    "TREE_KIND",
    "encode_histogram",
    "decode_histogram",
    "encode_tree",
    "decode_tree",
]

#: Manifest ``kind`` tag for packed :class:`FlatRTree` artifacts.
TREE_KIND = "flat_tree"


def as_int(value: object, what: str) -> int:
    """Coerce a manifest scalar to int; anything non-integral is corrupt."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def encode_histogram(hist: Histogram) -> tuple[dict[str, object], dict[str, np.ndarray]]:
    """Split a histogram into JSON params + the arrays to persist."""
    scalars, stats = histogram_parts(hist)
    return scalars, {"stats": np.ascontiguousarray(stats)}


def decode_histogram(
    params: Mapping[str, object], arrays: Mapping[str, np.ndarray]
) -> Histogram:
    """Rebuild a histogram from manifest params + loaded arrays.

    ``arrays["stats"]`` may be (and, on the warm path, is) a read-only
    memmap; the rebuilt histogram's planes are zero-copy slices of it.
    """
    stats = arrays.get("stats")
    if stats is None:
        raise ValueError("histogram payload must carry a 'stats' array")
    return histogram_from_parts(dict(params), stats)


def encode_tree(tree: FlatRTree) -> tuple[dict[str, object], dict[str, np.ndarray]]:
    """Split a flat tree into JSON params + its packed block arrays."""
    params: dict[str, object] = {
        "max_entries": int(tree.max_entries),
        "n": len(tree),
        "height": int(tree.height),
    }
    arrays = {
        name: np.ascontiguousarray(block) for name, block in tree.to_blocks().items()
    }
    return params, arrays


def decode_tree(
    params: Mapping[str, object], arrays: Mapping[str, np.ndarray]
) -> FlatRTree:
    """Rebuild a flat tree from manifest params + loaded block arrays."""
    tree = FlatRTree.from_blocks(as_int(params.get("max_entries"), "max_entries"), arrays)
    if len(tree) != as_int(params.get("n"), "n"):
        raise ValueError("tree payload size disagrees with its manifest")
    if tree.height != as_int(params.get("height"), "height"):
        raise ValueError("tree payload height disagrees with its manifest")
    return tree
