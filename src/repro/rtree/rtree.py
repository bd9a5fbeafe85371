"""Dynamic Guttman R-tree with quadratic split.

This is the classic structure from Guttman (SIGMOD '84) used by the paper
as the join substrate: samples and full datasets are indexed with R-trees
and joined via synchronized traversal (Brinkhoff et al., SIGMOD '93).

The dynamic tree supports one-at-a-time insertion (choose-leaf by least
enlargement, quadratic or R* split on overflow), deletion and window
queries.  For bulk data prefer the packed loaders in
:mod:`repro.rtree.bulk` / :mod:`repro.rtree.flat`, which produce better
trees in a fraction of the time.  Joins run on the flat kernel:
:meth:`~repro.rtree.flat.FlatRTree.from_tree` flattens an inserted tree
with its node structure, so the join visits the tree as built.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from ..geometry import Rect, RectArray
from ..runtime import checkpoint
from .node import Node

__all__ = ["RTree", "DEFAULT_MAX_ENTRIES"]

DEFAULT_MAX_ENTRIES = 32


class RTree:
    """A dynamic R-tree over 2-D rectangles with integer payload ids.

    Parameters
    ----------
    max_entries:
        Node capacity ``M``; nodes split when exceeding it.
    min_entries:
        Minimum fill ``m`` after a split (defaults to ``M // 3``, a common
        quadratic-split choice; must satisfy ``1 <= m <= M // 2``).
    split:
        Node-split strategy: ``"quadratic"`` (Guttman's, the default) or
        ``"rstar"`` (the R*-tree topological split of Beckmann et al.:
        pick the axis minimizing total margin, then the distribution
        minimizing overlap). R* splits produce squarer, less-overlapping
        nodes at slightly higher split cost — compare them with
        ``benchmarks/bench_ablation_rtree_packing.py``.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        min_entries: Optional[int] = None,
        *,
        split: str = "quadratic",
    ) -> None:
        if max_entries < 2:
            raise ValueError("max_entries must be at least 2")
        if split not in ("quadratic", "rstar"):
            raise ValueError(f"split must be 'quadratic' or 'rstar', got {split!r}")
        self.max_entries = max_entries
        self.min_entries = min_entries if min_entries is not None else max(1, max_entries // 3)
        if not (1 <= self.min_entries <= max_entries // 2):
            raise ValueError(
                f"min_entries must be in [1, max_entries // 2], got {self.min_entries}"
            )
        self.split = split
        self.root = Node(0)
        self._count = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_rect_array(
        cls,
        rects: RectArray,
        *,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        min_entries: Optional[int] = None,
        split: str = "quadratic",
    ) -> "RTree":
        """Insert every rectangle of ``rects`` with payload id = its index."""
        tree = cls(max_entries=max_entries, min_entries=min_entries, split=split)
        coords = rects.as_coords()
        for i in range(coords.shape[0]):
            tree._insert_coords(coords[i], i)
        return tree

    def insert(self, rect: Rect, payload: int) -> None:
        """Insert one rectangle with an integer payload id."""
        self._insert_coords(np.array(rect.as_tuple(), dtype=np.float64), int(payload))

    def extend(self, items: Iterable[tuple[Rect, int]]) -> None:
        """Insert many ``(rect, payload)`` entries."""
        for rect, payload in items:
            self.insert(rect, payload)

    def __len__(self) -> int:
        return self._count

    @property
    def height(self) -> int:
        """Number of levels (a lone leaf root has height 1)."""
        return self.root.level + 1

    # ------------------------------------------------------------------
    # Insertion internals
    # ------------------------------------------------------------------
    def _insert_coords(self, coord: np.ndarray, payload: int) -> None:
        checkpoint("rtree.insert")
        split = self._insert_into(self.root, coord, payload)
        if split is not None:
            old_root = self.root
            self.root = Node(old_root.level + 1, children=[old_root, split])
        self._count += 1

    def _insert_into(self, node: Node, coord: np.ndarray, payload: int) -> Optional[Node]:
        """Insert below ``node``; return a sibling if ``node`` split."""
        if node.is_leaf:
            node.entry_coords = np.vstack([node.entry_coords, coord[None, :]])
            node.entry_ids = np.append(node.entry_ids, payload)
            node.recompute_mbr()
            if node.fanout > self.max_entries:
                return self._split_leaf(node)
            return None

        child = self._choose_subtree(node, coord)
        split = self._insert_into(child, coord, payload)
        if split is not None:
            node.children.append(split)
        node.recompute_mbr()
        if node.fanout > self.max_entries:
            return self._split_internal(node)
        return None

    @staticmethod
    def _choose_subtree(node: Node, coord: np.ndarray) -> Node:
        """Guttman choose-leaf: least enlargement, ties by smallest area."""
        mbrs = node.child_mbr_array()
        xmin = np.minimum(mbrs[:, 0], coord[0])
        ymin = np.minimum(mbrs[:, 1], coord[1])
        xmax = np.maximum(mbrs[:, 2], coord[2])
        ymax = np.maximum(mbrs[:, 3], coord[3])
        areas = (mbrs[:, 2] - mbrs[:, 0]) * (mbrs[:, 3] - mbrs[:, 1])
        enlargements = (xmax - xmin) * (ymax - ymin) - areas
        best = np.lexsort((areas, enlargements))[0]
        return node.children[int(best)]

    # ------------------------------------------------------------------
    # Deletion (Guttman's Delete with CondenseTree)
    # ------------------------------------------------------------------
    def delete(self, rect: Rect, payload: int) -> bool:
        """Remove one entry matching ``(rect, payload)`` exactly.

        Returns True if an entry was removed.  Underfull nodes on the
        path are dissolved and their surviving entries reinserted
        (Guttman's CondenseTree); the root collapses when it has a
        single internal child.
        """
        coord = np.array(rect.as_tuple(), dtype=np.float64)
        orphans: list[tuple[np.ndarray, int]] = []
        found = self._delete_from(self.root, coord, int(payload), orphans)
        if not found:
            return False
        self._count -= 1
        # Collapse a root chain left behind by dissolved children.
        while not self.root.is_leaf and len(self.root.children) == 1:
            self.root = self.root.children[0]
        if not self.root.is_leaf and not self.root.children:
            self.root = Node(0)
        for orphan_coord, orphan_id in orphans:
            self._insert_coords(orphan_coord, orphan_id)
            self._count -= 1  # reinsertion is not a net addition
        return True

    def _delete_from(
        self,
        node: Node,
        coord: np.ndarray,
        payload: int,
        orphans: list[tuple[np.ndarray, int]],
    ) -> bool:
        checkpoint("rtree.delete")
        if node.is_leaf:
            matches = np.nonzero(
                (node.entry_ids == payload) & (node.entry_coords == coord).all(axis=1)
            )[0]
            if not len(matches):
                return False
            keep = np.ones(node.fanout, dtype=bool)
            keep[matches[0]] = False
            node.entry_coords = node.entry_coords[keep]
            node.entry_ids = node.entry_ids[keep]
            node.recompute_mbr()
            return True

        target = (coord[0], coord[1], coord[2], coord[3])
        for child in node.children:
            if not child.mbr_intersects(target):
                continue
            if self._delete_from(child, coord, payload, orphans):
                if child.fanout < self.min_entries:
                    node.children.remove(child)
                    self._orphan_subtree(child, orphans)
                node.recompute_mbr()
                return True
        return False

    @staticmethod
    def _orphan_subtree(node: Node, orphans: list[tuple[np.ndarray, int]]) -> None:
        """Collect every leaf entry below ``node`` for reinsertion."""
        for descendant in node.walk():
            if descendant.is_leaf:
                for i in range(descendant.fanout):
                    orphans.append(
                        (descendant.entry_coords[i].copy(), int(descendant.entry_ids[i]))
                    )

    # -- quadratic split ------------------------------------------------
    def _split_leaf(self, node: Node) -> Node:
        group_a, group_b = self._partition(node.entry_coords)
        sibling = Node(
            0,
            entry_coords=node.entry_coords[group_b],
            entry_ids=node.entry_ids[group_b],
        )
        node.entry_coords = node.entry_coords[group_a]
        node.entry_ids = node.entry_ids[group_a]
        node.recompute_mbr()
        return sibling

    def _split_internal(self, node: Node) -> Node:
        mbrs = node.child_mbr_array()
        group_a, group_b = self._partition(mbrs)
        children = node.children
        sibling = Node(node.level, children=[children[i] for i in group_b])
        node.children = [children[i] for i in group_a]
        node.recompute_mbr()
        return sibling

    def _partition(self, boxes: np.ndarray) -> tuple[list[int], list[int]]:
        """Dispatch to the configured split strategy."""
        if self.split == "rstar":
            return self._rstar_partition(boxes)
        return self._quadratic_partition(boxes)

    def _rstar_partition(self, boxes: np.ndarray) -> tuple[list[int], list[int]]:
        """R*-tree topological split (Beckmann et al., SIGMOD '90).

        ChooseSplitAxis: for both axes, sum the margins of all candidate
        distributions over the lower- and upper-sorted orders; pick the
        axis with the smaller sum.  ChooseSplitIndex: on that axis, pick
        the distribution with minimal overlap between the two groups,
        ties by minimal total area.
        """
        k = boxes.shape[0]
        m = self.min_entries

        def distributions(order: np.ndarray):
            """Yield (split_pos, group_a, group_b) honoring min fill."""
            for pos in range(m, k - m + 1):
                yield order[:pos], order[pos:]

        def group_mbr(idx: np.ndarray) -> np.ndarray:
            sub = boxes[idx]
            return np.array(
                [sub[:, 0].min(), sub[:, 1].min(), sub[:, 2].max(), sub[:, 3].max()]
            )

        def margin(mbr: np.ndarray) -> float:
            return (mbr[2] - mbr[0]) + (mbr[3] - mbr[1])

        def overlap(a: np.ndarray, b: np.ndarray) -> float:
            w = min(a[2], b[2]) - max(a[0], b[0])
            h = min(a[3], b[3]) - max(a[1], b[1])
            return w * h if (w > 0 and h > 0) else 0.0

        best_axis = None
        best_margin_sum = np.inf
        axis_orders = {}
        for axis, (lo_col, hi_col) in enumerate(((0, 2), (1, 3))):
            orders = [
                np.lexsort((boxes[:, hi_col], boxes[:, lo_col])),
                np.lexsort((boxes[:, lo_col], boxes[:, hi_col])),
            ]
            axis_orders[axis] = orders
            margin_sum = 0.0
            for order in orders:
                checkpoint("rtree.split")
                for group_a, group_b in distributions(order):
                    margin_sum += margin(group_mbr(group_a)) + margin(group_mbr(group_b))
            if margin_sum < best_margin_sum:
                best_margin_sum = margin_sum
                best_axis = axis

        best = None
        best_key = (np.inf, np.inf)
        for order in axis_orders[best_axis]:
            for group_a, group_b in distributions(order):
                checkpoint("rtree.split")
                mbr_a, mbr_b = group_mbr(group_a), group_mbr(group_b)
                key = (
                    overlap(mbr_a, mbr_b),
                    (mbr_a[2] - mbr_a[0]) * (mbr_a[3] - mbr_a[1])
                    + (mbr_b[2] - mbr_b[0]) * (mbr_b[3] - mbr_b[1]),
                )
                if key < best_key:
                    best_key = key
                    best = (group_a, group_b)
        assert best is not None
        return list(best[0]), list(best[1])

    def _quadratic_partition(self, boxes: np.ndarray) -> tuple[list[int], list[int]]:
        """Guttman's quadratic split over an ``(k, 4)`` box block.

        Returns two disjoint index lists covering ``range(k)``, each of
        size at least ``min_entries``.
        """
        k = boxes.shape[0]
        seed_a, seed_b = self._pick_seeds(boxes)
        group_a, group_b = [seed_a], [seed_b]
        mbr_a = boxes[seed_a].copy()
        mbr_b = boxes[seed_b].copy()
        remaining = [i for i in range(k) if i not in (seed_a, seed_b)]

        while remaining:
            checkpoint("rtree.split")
            # Force-assign when one group must absorb everything left to
            # reach the minimum fill.
            if len(group_a) + len(remaining) == self.min_entries:
                group_a.extend(remaining)
                break
            if len(group_b) + len(remaining) == self.min_entries:
                group_b.extend(remaining)
                break

            rem = np.array(remaining)
            enl_a = _enlargement_of(mbr_a, boxes[rem])
            enl_b = _enlargement_of(mbr_b, boxes[rem])
            # Pick the entry with the largest preference for one group.
            diffs = np.abs(enl_a - enl_b)
            pick_pos = int(np.argmax(diffs))
            pick = remaining.pop(pick_pos)
            if enl_a[pick_pos] < enl_b[pick_pos] or (
                enl_a[pick_pos] == enl_b[pick_pos] and len(group_a) <= len(group_b)
            ):
                group_a.append(pick)
                mbr_a = _union_boxes(mbr_a, boxes[pick])
            else:
                group_b.append(pick)
                mbr_b = _union_boxes(mbr_b, boxes[pick])
        return group_a, group_b

    @staticmethod
    def _pick_seeds(boxes: np.ndarray) -> tuple[int, int]:
        """Pick the pair wasting the most area if grouped together."""
        k = boxes.shape[0]
        xmin = np.minimum.outer(boxes[:, 0], boxes[:, 0])
        ymin = np.minimum.outer(boxes[:, 1], boxes[:, 1])
        xmax = np.maximum.outer(boxes[:, 2], boxes[:, 2])
        ymax = np.maximum.outer(boxes[:, 3], boxes[:, 3])
        union_area = (xmax - xmin) * (ymax - ymin)
        areas = (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
        waste = union_area - areas[:, None] - areas[None, :]
        np.fill_diagonal(waste, -np.inf)
        flat = int(np.argmax(waste))
        return flat // k, flat % k

    # ------------------------------------------------------------------
    # Queries (thin wrappers; see repro.rtree.query for the full API)
    # ------------------------------------------------------------------
    def search(self, rect: Rect) -> np.ndarray:
        """Payload ids of rectangles intersecting ``rect`` (sorted)."""
        from .query import search_intersecting

        return search_intersecting(self.root, rect)

    def count(self, rect: Rect) -> int:
        """Number of entries intersecting ``rect``."""
        from .query import count_intersecting

        return count_intersecting(self.root, rect)


def _enlargement_of(mbr: np.ndarray, boxes: np.ndarray) -> np.ndarray:
    """Enlargement of ``mbr`` needed to absorb each box in the block."""
    if mbr[0] > mbr[2]:  # empty sentinel
        return (boxes[:, 2] - boxes[:, 0]) * (boxes[:, 3] - boxes[:, 1])
    xmin = np.minimum(mbr[0], boxes[:, 0])
    ymin = np.minimum(mbr[1], boxes[:, 1])
    xmax = np.maximum(mbr[2], boxes[:, 2])
    ymax = np.maximum(mbr[3], boxes[:, 3])
    area = (mbr[2] - mbr[0]) * (mbr[3] - mbr[1])
    return (xmax - xmin) * (ymax - ymin) - area


def _union_boxes(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.array(
        [min(a[0], b[0]), min(a[1], b[1]), max(a[2], b[2]), max(a[3], b[3])],
        dtype=np.float64,
    )
