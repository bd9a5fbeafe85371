"""Bulk loading (packing) of R-trees.

Two classic packers are provided:

* :func:`bulk_load_str` — Sort-Tile-Recursive (Leutenegger et al.): sort
  by center x, cut into vertical slabs, sort each slab by center y, pack
  runs of ``M``.  Produces square-ish, well-filled leaves.
* :func:`bulk_load_hilbert` — Kamel & Faloutsos "On Packing R-trees":
  sort by the Hilbert value of the rectangle centers and pack
  sequentially.  This is the packing the paper's reference [15] proposes
  and whose Hilbert ordering the SS sampling technique reuses.

Both return the same :class:`~repro.rtree.rtree.RTree` wrapper as the
dynamic loader (with payload id = index into the input array), so all
query code is shared.  Joins use :func:`repro.rtree.flat.flat_load_str` /
:func:`~repro.rtree.flat.flat_load_hilbert`, which pack the same order
straight into flat arrays.
"""

from __future__ import annotations

import math

import numpy as np

from ..geometry import RectArray
from ..hilbert import DEFAULT_ORDER, hilbert_sort_order
from ..runtime import checkpoint
from .node import Node
from .rtree import DEFAULT_MAX_ENTRIES, RTree

__all__ = [
    "bulk_load_str",
    "bulk_load_hilbert",
    "pack_sorted",
    "str_order",
    "hilbert_center_order",
]


def str_order(rects: RectArray, *, max_entries: int = DEFAULT_MAX_ENTRIES) -> np.ndarray:
    """The Sort-Tile-Recursive packing permutation for ``rects``.

    Shared by the object packer (:func:`bulk_load_str`) and the flat
    loader (:func:`repro.rtree.flat.flat_load_str`), so both produce the
    same tree shape from the same input.
    """
    n = len(rects)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    cx, cy = rects.centers()
    leaf_count = math.ceil(n / max_entries)
    slab_count = math.ceil(math.sqrt(leaf_count))
    slab_size = slab_count * max_entries

    by_x = np.argsort(cx, kind="stable")
    order = np.empty(n, dtype=np.int64)
    for s in range(0, n, slab_size):
        slab = by_x[s : s + slab_size]
        slab_sorted = slab[np.argsort(cy[slab], kind="stable")]
        order[s : s + len(slab)] = slab_sorted
    return order


def hilbert_center_order(
    rects: RectArray, *, order_bits: int = DEFAULT_ORDER
) -> np.ndarray:
    """The Hilbert-value packing permutation over rectangle centers."""
    n = len(rects)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    cx, cy = rects.centers()
    bounds = rects.bounds()
    return hilbert_sort_order(
        cx,
        cy,
        extent_min=(bounds.xmin, bounds.ymin),
        extent_size=(max(bounds.width, 1e-12), max(bounds.height, 1e-12)),
        order=order_bits,
    )


def bulk_load_str(
    rects: RectArray, *, max_entries: int = DEFAULT_MAX_ENTRIES
) -> RTree:
    """Build a packed R-tree with Sort-Tile-Recursive ordering."""
    if len(rects) == 0:
        return _empty_tree(max_entries)
    return pack_sorted(rects, str_order(rects, max_entries=max_entries), max_entries=max_entries)


def bulk_load_hilbert(
    rects: RectArray,
    *,
    max_entries: int = DEFAULT_MAX_ENTRIES,
    order_bits: int = DEFAULT_ORDER,
) -> RTree:
    """Build a packed R-tree in Hilbert-value order of rectangle centers."""
    if len(rects) == 0:
        return _empty_tree(max_entries)
    return pack_sorted(
        rects, hilbert_center_order(rects, order_bits=order_bits), max_entries=max_entries
    )


def pack_sorted(
    rects: RectArray, order: np.ndarray, *, max_entries: int = DEFAULT_MAX_ENTRIES
) -> RTree:
    """Pack rectangles into a tree following a given linear order.

    ``order`` must be a permutation of ``range(len(rects))``; payload ids
    are the *original* indices, so query results are independent of the
    packing order.
    """
    n = len(rects)
    order = np.asarray(order, dtype=np.int64)
    if order.shape != (n,):
        raise ValueError("order must be a permutation of range(len(rects))")
    coords = rects.as_coords()[order]
    ids = order.copy()

    leaves: list[Node] = [
        Node(0, entry_coords=coords[s : s + max_entries], entry_ids=ids[s : s + max_entries])
        for s in range(0, max(n, 1), max_entries)
    ]
    level = 0
    nodes = leaves
    while len(nodes) > 1:
        checkpoint("rtree.bulk.level")
        level += 1
        nodes = [
            Node(level, children=nodes[s : s + max_entries])
            for s in range(0, len(nodes), max_entries)
        ]
    tree = RTree(max_entries=max_entries)
    tree.root = nodes[0]
    tree._count = n
    return tree


def _empty_tree(max_entries: int) -> RTree:
    return RTree(max_entries=max_entries)
