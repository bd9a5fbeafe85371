"""Flat structure-of-arrays R-tree with a vectorized synchronized join.

This is the library's one R-tree join kernel: the sampling estimators'
sample joins, the reference join every relative cost of Figures 6 and 7
divides by, and the exact ``method="rtree"`` engine all run it.
:class:`FlatRTree` keeps no Python object per node, following the
packing idea behind Hilbert-packed R-trees (Kamel & Faloutsos, CIKM
'93): every level is fully described by three contiguous arrays — an
``(m, 4)`` float64 MBR block plus int64 child ``start``/``count`` range
vectors into the level below (leaves range into the packed entry
arrays).  A packed tree fills nodes *sequentially* along a linear order,
so building a level is four ``reduceat`` calls
(:meth:`FlatRTree.from_order`); an insertion-built object tree
(:class:`~repro.rtree.rtree.RTree`, quadratic or R* splits) flattens
into the same arrays with its variable fanouts intact
(:meth:`FlatRTree.from_tree`).

The synchronized join (:func:`flat_join_count` / :func:`flat_join_pairs`)
is iterative and *frontier-based* instead of stack-based: because the
descend rule of the classic traversal (Brinkhoff et al., SIGMOD '93 —
descend the taller tree until levels match, then both) depends only on
the current ``(level_a, level_b)``, the whole candidate frontier stays
level-uniform and advances one blocked broadcast test at a time.  Both
the descend and the final leaf×leaf stage read pre-padded per-parent
child-coordinate planes (one contiguous ``(parents, M)`` float64 plane
per coordinate and level, tail slots filled with a never-intersecting
sentinel): descending reduces a ``(pairs, M)`` mask against the other
side's MBR columns, the leaf stage a ``(pairs, Ma, Mb)`` mask — no
per-entry index expansion anywhere on the hot path.  Every block polls
:func:`repro.runtime.checkpoint`, so deadlines and the fault harness
preempt the join.  A child ``c`` of ``b`` is kept iff ``c ∩ a ≠ ∅``,
the same node pairs a clipped-window traversal visits (``c ∩ a ≠ ∅``
iff ``c ∩ (a ∩ b.mbr) ≠ ∅`` for boxes with ``c ⊆ b.mbr``); the
differential matrix in ``tests/join/test_join_agreement.py`` holds the
kernel to every other exact engine's answer.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..geometry import RectArray
from ..hilbert import DEFAULT_ORDER
from ..runtime import checkpoint
from .bulk import hilbert_center_order, str_order
from .node import Node
from .rtree import DEFAULT_MAX_ENTRIES, RTree

__all__ = [
    "FlatRTree",
    "flat_load_str",
    "flat_load_hilbert",
    "flat_join_count",
    "flat_join_pairs",
    "tree_size_bytes",
    "BYTES_PER_ENTRY",
]

#: 4 coordinates x 8 bytes + 8-byte pointer/id, the usual textbook figure.
BYTES_PER_ENTRY = 4 * 8 + 8

#: Upper bound on candidate pairs expanded by one vectorized block; keeps
#: peak scratch memory bounded (a few int64/bool arrays of this length)
#: and sets the checkpoint granularity of the join.
DEFAULT_PAIR_BLOCK = 1 << 18


def _level_ranges(n: int, max_entries: int) -> tuple[np.ndarray, np.ndarray]:
    """Sequential-packing child ranges: starts and counts for ``n`` items."""
    starts = np.arange(0, n, max_entries, dtype=np.int64)
    counts = np.diff(np.append(starts, np.int64(n))).astype(np.int64)
    return starts, counts


def _reduce_mbrs(boxes: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per-run MBRs of ``boxes`` grouped by ``starts`` (reduceat runs)."""
    out = np.empty((len(starts), 4), dtype=np.float64)
    out[:, 0] = np.minimum.reduceat(boxes[:, 0], starts)
    out[:, 1] = np.minimum.reduceat(boxes[:, 1], starts)
    out[:, 2] = np.maximum.reduceat(boxes[:, 2], starts)
    out[:, 3] = np.maximum.reduceat(boxes[:, 3], starts)
    return out


def _pad_child_blocks(
    boxes: np.ndarray, starts: np.ndarray, counts: np.ndarray, max_entries: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-parent ``(parents, M)`` child-coordinate planes, sentinel-padded.

    Parent ``p``'s children are rows ``starts[p] : starts[p] + counts[p]``
    of ``boxes`` (entry coordinates at level 0, the level below's node
    MBRs above); the runs tile ``boxes`` in parent order, and child ``k``
    of ``p`` lands in slot ``(p, k)``.  For a sequentially packed level
    (every count ``M`` but the last) the scatter is the column padded to
    ``parents * M`` and reshaped.  The pad sentinel
    ``(+inf, +inf, -inf, -inf)`` fails every closed intersection test,
    which lets the join broadcast full blocks without a validity mask.
    """
    n_parents = len(starts)
    slots = np.repeat(np.arange(n_parents, dtype=np.int64) * max_entries - starts, counts)
    slots += np.arange(len(boxes), dtype=np.int64)

    def plane(column: np.ndarray, fill: float) -> np.ndarray:
        out = np.full(n_parents * max_entries, fill, dtype=np.float64)
        out[slots] = column
        return out.reshape(n_parents, max_entries)

    return (
        plane(boxes[:, 0], np.inf),
        plane(boxes[:, 1], np.inf),
        plane(boxes[:, 2], -np.inf),
        plane(boxes[:, 3], -np.inf),
    )


def _intersect_mask(ma: np.ndarray, mb: np.ndarray) -> np.ndarray:
    """Row-wise closed intersection test between two ``(k, 4)`` MBR blocks."""
    return (
        (ma[:, 0] <= mb[:, 2])
        & (mb[:, 0] <= ma[:, 2])
        & (ma[:, 1] <= mb[:, 3])
        & (mb[:, 1] <= ma[:, 3])
    )


class FlatRTree:
    """An R-tree stored as contiguous numpy arrays.

    Attributes
    ----------
    entry_coords / entry_ids:
        The packed leaf payload: an ``(n, 4)`` float64 coordinate block in
        packing order and the int64 original indices (query results are
        therefore independent of the packing order).
    level_mbrs / level_start / level_count:
        Per-level node arrays, index 0 = leaf nodes up to the root level.
        ``level_mbrs[l]`` is ``(m_l, 4)`` float64; node ``i`` of level
        ``l`` covers ``level_start[l][i] : +level_count[l][i]`` — entries
        for ``l == 0``, level ``l - 1`` nodes otherwise.
    child_blocks:
        Per level, four contiguous ``(parents, max_entries)`` float64
        planes (xmin, ymin, xmax, ymax) of that level's child boxes —
        packed entry coordinates at index 0, the level below's node MBRs
        above.  Tail slots of each level's last parent hold
        ``(+inf, +inf, -inf, -inf)`` — a rectangle that intersects
        nothing — so the join can broadcast whole blocks without masking
        out the padding.  :attr:`leaf_blocks` aliases index 0.

    Instances are immutable by convention; build with
    :func:`flat_load_str` / :func:`flat_load_hilbert`,
    :meth:`from_order` or :meth:`from_tree`.
    """

    __slots__ = (
        "max_entries",
        "entry_coords",
        "entry_ids",
        "level_mbrs",
        "level_start",
        "level_count",
        "child_blocks",
    )

    def __init__(
        self,
        max_entries: int,
        entry_coords: np.ndarray,
        entry_ids: np.ndarray,
        level_mbrs: List[np.ndarray],
        level_start: List[np.ndarray],
        level_count: List[np.ndarray],
        child_blocks: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
    ) -> None:
        self.max_entries = max_entries
        self.entry_coords = entry_coords
        self.entry_ids = entry_ids
        self.level_mbrs = level_mbrs
        self.level_start = level_start
        self.level_count = level_count
        self.child_blocks = child_blocks

    @property
    def leaf_blocks(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The level-0 child planes: per-leaf padded entry coordinates."""
        if not self.child_blocks:
            empty = np.empty((0, self.max_entries), dtype=np.float64)
            return (empty, empty, empty, empty)
        return self.child_blocks[0]

    # ------------------------------------------------------------------
    @classmethod
    def from_order(
        cls,
        rects: RectArray,
        order: np.ndarray,
        *,
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ) -> "FlatRTree":
        """Pack ``rects`` along a linear ``order`` into a flat tree.

        ``order`` must be a permutation of ``range(len(rects))``; payload
        ids are the original indices, exactly as
        :func:`repro.rtree.bulk.pack_sorted` assigns them.
        """
        if max_entries < 2:
            raise ValueError("max_entries must be at least 2")
        n = len(rects)
        order = np.asarray(order, dtype=np.int64)
        if order.shape != (n,):
            raise ValueError("order must be a permutation of range(len(rects))")
        coords = np.ascontiguousarray(rects.as_coords()[order])
        ids = order.copy()
        if n == 0:
            return cls(max_entries, coords.reshape(0, 4), ids, [], [], [], [])
        starts, counts = _level_ranges(n, max_entries)
        level_mbrs = [_reduce_mbrs(coords, starts)]
        level_start = [starts]
        level_count = [counts]
        child_blocks = [_pad_child_blocks(coords, starts, counts, max_entries)]
        while len(level_mbrs[-1]) > 1:
            checkpoint("rtree.flat.level")
            below = level_mbrs[-1]
            starts, counts = _level_ranges(len(below), max_entries)
            level_mbrs.append(_reduce_mbrs(below, starts))
            level_start.append(starts)
            level_count.append(counts)
            child_blocks.append(_pad_child_blocks(below, starts, counts, max_entries))
        return cls(
            max_entries, coords, ids, level_mbrs, level_start, level_count, child_blocks
        )

    @classmethod
    def from_tree(cls, tree: RTree) -> "FlatRTree":
        """Flatten an object tree level by level, keeping its node structure.

        The entries are the leaves' entries in leaf order, each level's
        ``start``/``count`` vectors are the node fanouts, and the level
        MBRs are the node MBRs, so any tree shape — packed, or built by
        quadratic or R* insertion with variable fanout — joins through
        the flat kernel.  Flattening a packed object tree gives the
        arrays :meth:`from_order` builds from the same order.
        """
        max_entries = tree.max_entries
        if len(tree) == 0:
            empty = np.empty((0, 4), dtype=np.float64)
            return cls(max_entries, empty, np.empty(0, dtype=np.int64), [], [], [], [])
        levels: List[List[Node]] = [[tree.root]]
        while not levels[-1][0].is_leaf:
            checkpoint("rtree.flat.level")
            levels.append([child for node in levels[-1] for child in node.children])
        levels.reverse()
        coords = np.concatenate([leaf.entry_coords for leaf in levels[0]])
        ids = np.concatenate([leaf.entry_ids for leaf in levels[0]])
        level_mbrs: List[np.ndarray] = []
        level_start: List[np.ndarray] = []
        level_count: List[np.ndarray] = []
        child_blocks: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        below = coords
        for nodes in levels:
            checkpoint("rtree.flat.level")
            counts = np.array([node.fanout for node in nodes], dtype=np.int64)
            starts = np.cumsum(counts) - counts
            level_mbrs.append(np.array([node.mbr for node in nodes], dtype=np.float64))
            level_start.append(starts)
            level_count.append(counts)
            child_blocks.append(_pad_child_blocks(below, starts, counts, max_entries))
            below = level_mbrs[-1]
        return cls(
            max_entries, coords, ids, level_mbrs, level_start, level_count, child_blocks
        )

    # ------------------------------------------------------------------
    def to_blocks(self) -> Dict[str, np.ndarray]:
        """Pack the whole tree into a flat ``name → array`` mapping.

        The layout is the persistence schema used by ``repro.store``:
        ``entry_coords`` / ``entry_ids`` plus, per level ``l``,
        ``level{l}_mbrs`` / ``level{l}_start`` / ``level{l}_count`` and
        ``level{l}_planes`` — the four child-coordinate planes stacked
        into one ``(4, parents, max_entries)`` float64 array so each
        level round-trips through a single ``.npy`` file.
        :meth:`from_blocks` is the exact inverse; joins over the
        rebuilt tree are bit-identical because the padded planes are
        stored verbatim, not recomputed.
        """
        blocks: Dict[str, np.ndarray] = {
            "entry_coords": self.entry_coords,
            "entry_ids": self.entry_ids,
        }
        for lvl in range(self.height):
            blocks[f"level{lvl}_mbrs"] = self.level_mbrs[lvl]
            blocks[f"level{lvl}_start"] = self.level_start[lvl]
            blocks[f"level{lvl}_count"] = self.level_count[lvl]
            blocks[f"level{lvl}_planes"] = np.stack(self.child_blocks[lvl])
        return blocks

    @classmethod
    def from_blocks(
        cls, max_entries: int, blocks: Mapping[str, np.ndarray]
    ) -> "FlatRTree":
        """Rebuild a tree from a :meth:`to_blocks` mapping.

        The store holds packed trees only, so every level must hold
        ``ceil(children / max_entries)`` nodes.  Accepts read-only
        memmap views — every array is used as-is (plane tuples are
        zero-copy slices of the stacked planes file), so a
        catalog-loaded tree shares page-cache pages across processes.
        Raises :class:`ValueError` on any structural
        inconsistency (missing level, shape mismatch, bad dtype) so
        torn or foreign payloads are rejected instead of mis-joined.
        """
        if max_entries < 2:
            raise ValueError("max_entries must be at least 2")
        coords = blocks.get("entry_coords")
        ids = blocks.get("entry_ids")
        if coords is None or ids is None:
            raise ValueError("blocks must include entry_coords and entry_ids")
        n = coords.shape[0] if coords.ndim == 2 else -1
        if coords.ndim != 2 or coords.shape[1] != 4 or coords.dtype != np.float64:
            raise ValueError(f"entry_coords must be (n, 4) float64, got {coords.shape}")
        if ids.shape != (n,) or ids.dtype != np.int64:
            raise ValueError("entry_ids must be (n,) int64 matching entry_coords")
        level_mbrs: List[np.ndarray] = []
        level_start: List[np.ndarray] = []
        level_count: List[np.ndarray] = []
        child_blocks: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        below = n
        lvl = 0
        while f"level{lvl}_mbrs" in blocks:
            checkpoint("rtree.flat.level")
            mbrs = blocks[f"level{lvl}_mbrs"]
            start = blocks[f"level{lvl}_start"]
            count = blocks[f"level{lvl}_count"]
            planes = blocks.get(f"level{lvl}_planes")
            m = mbrs.shape[0] if mbrs.ndim == 2 else -1
            if mbrs.ndim != 2 or mbrs.shape[1] != 4 or mbrs.dtype != np.float64:
                raise ValueError(f"level {lvl} mbrs must be (m, 4) float64")
            if start.shape != (m,) or count.shape != (m,):
                raise ValueError(f"level {lvl} start/count must be (m,) vectors")
            if start.dtype != np.int64 or count.dtype != np.int64:
                raise ValueError(f"level {lvl} start/count must be int64")
            if planes is None or planes.shape != (4, m, max_entries):
                raise ValueError(
                    f"level {lvl} planes must be (4, {m}, {max_entries})"
                )
            if planes.dtype != np.float64:
                raise ValueError(f"level {lvl} planes must be float64")
            if m != -(below // -max_entries):
                raise ValueError(
                    f"level {lvl} holds {m} nodes over {below} children; "
                    f"expected {-(below // -max_entries)}"
                )
            level_mbrs.append(mbrs)
            level_start.append(start)
            level_count.append(count)
            child_blocks.append((planes[0], planes[1], planes[2], planes[3]))
            below = m
            lvl += 1
        if n > 0 and (not level_mbrs or len(level_mbrs[-1]) != 1):
            raise ValueError("blocks do not terminate in a single root node")
        if n == 0 and level_mbrs:
            raise ValueError("an empty tree must carry no levels")
        return cls(
            max_entries,
            coords,
            ids,
            level_mbrs,
            level_start,
            level_count,
            child_blocks,
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.entry_coords.shape[0]

    @property
    def height(self) -> int:
        """Number of levels (0 for an empty tree, 1 for a single leaf)."""
        return len(self.level_mbrs)

    @property
    def node_count(self) -> int:
        """Total nodes across all levels."""
        return sum(len(m) for m in self.level_mbrs)

    @property
    def root_mbr(self) -> Tuple[float, float, float, float]:
        """``(xmin, ymin, xmax, ymax)`` of the root (raises when empty)."""
        if not self.level_mbrs:
            raise ValueError("root_mbr of an empty FlatRTree")
        root = self.level_mbrs[-1][0]
        return (float(root[0]), float(root[1]), float(root[2]), float(root[3]))

    @property
    def size_bytes(self) -> int:
        """Actual array footprint — the cache's retention accounting."""
        total = self.entry_coords.nbytes + self.entry_ids.nbytes
        total += sum(
            plane.nbytes for planes in self.child_blocks for plane in planes
        )
        for mbrs, start, count in zip(self.level_mbrs, self.level_start, self.level_count):
            total += mbrs.nbytes + start.nbytes + count.nbytes
        return total

    def __repr__(self) -> str:
        return (
            f"FlatRTree(n={len(self)}, height={self.height}, "
            f"max_entries={self.max_entries})"
        )


def tree_size_bytes(tree: FlatRTree) -> int:
    """Byte size of the tree under a disk-page-style entry accounting.

    The paper's *space cost* expresses histogram size as a percentage of
    "the space required to maintain the R-trees for the actual
    datasets".  Every data entry and every child pointer (one per
    non-root node) stores an MBR of four floats plus a record id or
    child pointer: :data:`BYTES_PER_ENTRY` each.
    """
    if len(tree) == 0:
        return 0
    return (len(tree) + tree.node_count - 1) * BYTES_PER_ENTRY


def flat_load_str(
    rects: RectArray, *, max_entries: int = DEFAULT_MAX_ENTRIES
) -> FlatRTree:
    """Bulk-load a :class:`FlatRTree` in Sort-Tile-Recursive order.

    Same slab ordering as :func:`repro.rtree.bulk.bulk_load_str`, so
    flattening that object tree (:meth:`FlatRTree.from_tree`) gives the
    same arrays.
    """
    return FlatRTree.from_order(
        rects, str_order(rects, max_entries=max_entries), max_entries=max_entries
    )


def flat_load_hilbert(
    rects: RectArray,
    *,
    max_entries: int = DEFAULT_MAX_ENTRIES,
    order_bits: int = DEFAULT_ORDER,
) -> FlatRTree:
    """Bulk-load a :class:`FlatRTree` in Hilbert order of rect centers."""
    return FlatRTree.from_order(
        rects,
        hilbert_center_order(rects, order_bits=order_bits),
        max_entries=max_entries,
    )


# ----------------------------------------------------------------------
# Synchronized join
# ----------------------------------------------------------------------

def _root_frontier(
    tree_a: FlatRTree, tree_b: FlatRTree
) -> Optional[tuple[np.ndarray, np.ndarray, int, int]]:
    """Initial candidate frontier (both roots), or None when disjoint."""
    if len(tree_a) == 0 or len(tree_b) == 0:
        return None
    la = tree_a.height - 1
    lb = tree_b.height - 1
    ra = tree_a.level_mbrs[la][:1]
    rb = tree_b.level_mbrs[lb][:1]
    if not bool(_intersect_mask(ra, rb)[0]):
        return None
    root = np.zeros(1, dtype=np.int64)
    return root, root.copy(), la, lb


def _descend(
    tree: FlatRTree,
    level: int,
    own: np.ndarray,
    other_mbrs_level: np.ndarray,
    other: np.ndarray,
    block: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Replace ``own`` nodes by their intersecting children, blocked.

    ``own`` are node indices at ``level`` of ``tree`` (level > 0);
    ``other`` indexes ``other_mbrs_level`` rows.  Returns the surviving
    (child, other) index pairs one level down on the ``own`` side.

    Reads the padded ``(parents, M)`` child planes instead of expanding
    per-child index vectors: one contiguous row-gather per coordinate,
    four broadcast compares against the other side's MBR columns, and
    ``nonzero`` recovers child indices as ``start[parent] + slot``
    (sentinel pad slots never survive the test).
    """
    cxmin, cymin, cxmax, cymax = tree.child_blocks[level]
    start = tree.level_start[level]
    step = max(1, block // tree.max_entries)
    kept_children: list[np.ndarray] = []
    kept_other: list[np.ndarray] = []
    for s in range(0, len(own), step):
        checkpoint("rtree.flat.descend")
        p = own[s : s + step]
        o = other[s : s + step]
        om = other_mbrs_level[o]
        mask = cxmin[p] <= om[:, 2:3]
        mask &= om[:, 0:1] <= cxmax[p]
        mask &= cymin[p] <= om[:, 3:4]
        mask &= om[:, 1:2] <= cymax[p]
        k, slot = np.nonzero(mask)
        kept_children.append(start[p[k]] + slot)
        kept_other.append(o[k])
    if not kept_children:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    return np.concatenate(kept_children), np.concatenate(kept_other)


def _leaf_frontier(
    tree_a: FlatRTree, tree_b: FlatRTree, block: int
) -> tuple[np.ndarray, np.ndarray]:
    """All intersecting (leaf_a, leaf_b) node-index pairs.

    Advances the level-uniform frontier with the classic descend rule —
    descend ``b`` when ``a`` sits at leaf level or ``b`` is taller,
    descend ``a`` otherwise — until both sides reach their leaves.
    """
    state = _root_frontier(tree_a, tree_b)
    if state is None:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    pa, pb, la, lb = state
    while (la > 0 or lb > 0) and len(pa):
        if la == 0 or lb > la:
            pb, pa = _descend(tree_b, lb, pb, tree_a.level_mbrs[la], pa, block)
            lb -= 1
        else:
            pa, pb = _descend(tree_a, la, pa, tree_b.level_mbrs[lb], pb, block)
            la -= 1
    return pa, pb


def _leaf_block_mask(
    tree_a: FlatRTree,
    tree_b: FlatRTree,
    pa: np.ndarray,
    pb: np.ndarray,
) -> np.ndarray:
    """``(pairs, Ma, Mb)`` intersection mask for a block of leaf pairs.

    One contiguous row-gather per coordinate plane, then four broadcast
    compares combined in place.  Sentinel padding guarantees padded
    entry slots never test true, so no validity mask is needed.
    """
    axmin, aymin, axmax, aymax = tree_a.leaf_blocks
    bxmin, bymin, bxmax, bymax = tree_b.leaf_blocks
    mask = axmin[pa][:, :, None] <= bxmax[pb][:, None, :]
    mask &= bxmin[pb][:, None, :] <= axmax[pa][:, :, None]
    mask &= aymin[pa][:, :, None] <= bymax[pb][:, None, :]
    mask &= bymin[pb][:, None, :] <= aymax[pa][:, :, None]
    return mask


def _leaf_pair_block_size(tree_a: FlatRTree, tree_b: FlatRTree, block: int) -> int:
    """Leaf pairs per block so one expansion stays within ~``block`` rows."""
    per_pair = max(1, tree_a.max_entries) * max(1, tree_b.max_entries)
    return max(1, block // per_pair)


def flat_join_count(
    tree_a: FlatRTree, tree_b: FlatRTree, *, block: int = DEFAULT_PAIR_BLOCK
) -> int:
    """Number of intersecting ``(a, b)`` pairs between the two flat trees.

    Exact for any tree shape and packing order: the count equals every
    other exact engine's (:mod:`repro.join`).
    """
    if block < 1:
        raise ValueError(f"block must be positive, got {block}")
    pa, pb = _leaf_frontier(tree_a, tree_b, block)
    if len(pa) == 0:
        return 0
    step = _leaf_pair_block_size(tree_a, tree_b, block)
    total = 0
    for s in range(0, len(pa), step):
        checkpoint("rtree.flat.leaf")
        mask = _leaf_block_mask(tree_a, tree_b, pa[s : s + step], pb[s : s + step])
        total += int(np.count_nonzero(mask))
    return total


def flat_join_pairs(
    tree_a: FlatRTree, tree_b: FlatRTree, *, block: int = DEFAULT_PAIR_BLOCK
) -> np.ndarray:
    """All intersecting pairs as a ``(k, 2)`` int64 array of payload ids.

    Rows follow the library-wide canonical order (lexicographic by
    ``(a_id, b_id)``), so the output equals every other exact engine's
    pair array element for element.
    """
    if block < 1:
        raise ValueError(f"block must be positive, got {block}")
    pa, pb = _leaf_frontier(tree_a, tree_b, block)
    chunks: list[np.ndarray] = []
    step = _leaf_pair_block_size(tree_a, tree_b, block) if len(pa) else 1
    for s in range(0, len(pa), step):
        checkpoint("rtree.flat.leaf")
        p = pa[s : s + step]
        q = pb[s : s + step]
        hit, i, j = np.nonzero(_leaf_block_mask(tree_a, tree_b, p, q))
        if len(hit):
            entry_a = tree_a.level_start[0][p[hit]] + i
            entry_b = tree_b.level_start[0][q[hit]] + j
            chunks.append(
                np.stack(
                    [tree_a.entry_ids[entry_a], tree_b.entry_ids[entry_b]], axis=1
                )
            )
    if not chunks:
        return np.empty((0, 2), dtype=np.int64)
    pairs = np.concatenate(chunks, axis=0)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    return pairs[order]
