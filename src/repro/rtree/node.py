"""R-tree node representation shared by the dynamic and packed trees.

A node at ``level == 0`` is a leaf and stores its entries as parallel
numpy arrays (an ``(k, 4)`` coordinate block plus an id vector); internal
nodes store a list of child nodes.  Insertion, deletion and window
queries walk nodes; joins flatten the tree first
(:meth:`repro.rtree.flat.FlatRTree.from_tree` concatenates the leaves'
blocks in leaf order).
"""

from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np

__all__ = ["Node", "mbr_of_coords", "EMPTY_MBR"]

#: Sentinel MBR for empty nodes: an "inverted" box that intersects nothing
#: and unions as the identity.
EMPTY_MBR = (np.inf, np.inf, -np.inf, -np.inf)


def mbr_of_coords(coords: np.ndarray) -> tuple[float, float, float, float]:
    """MBR of an ``(k, 4)`` coordinate block (``EMPTY_MBR`` when k == 0)."""
    if coords.shape[0] == 0:
        return EMPTY_MBR
    return (
        float(coords[:, 0].min()),
        float(coords[:, 1].min()),
        float(coords[:, 2].max()),
        float(coords[:, 3].max()),
    )


class Node:
    """One R-tree node.

    Attributes
    ----------
    level:
        0 for leaves; parents are ``child.level + 1``.
    mbr:
        ``(xmin, ymin, xmax, ymax)`` covering everything below.
    children:
        Child nodes (internal nodes only; empty list in leaves).
    entry_coords / entry_ids:
        Leaf payload: an ``(k, 4)`` float64 block and a ``(k,)`` int64 id
        vector (empty in internal nodes).
    """

    __slots__ = ("level", "mbr", "children", "entry_coords", "entry_ids")

    def __init__(
        self,
        level: int,
        *,
        children: Optional[List["Node"]] = None,
        entry_coords: Optional[np.ndarray] = None,
        entry_ids: Optional[np.ndarray] = None,
    ) -> None:
        self.level = level
        self.children: List[Node] = children if children is not None else []
        if entry_coords is None:
            entry_coords = np.empty((0, 4), dtype=np.float64)
        if entry_ids is None:
            entry_ids = np.empty(0, dtype=np.int64)
        self.entry_coords = np.asarray(entry_coords, dtype=np.float64).reshape(-1, 4)
        self.entry_ids = np.asarray(entry_ids, dtype=np.int64).ravel()
        if level == 0:
            if self.children:
                raise ValueError("leaf nodes cannot have children")
            if len(self.entry_ids) != self.entry_coords.shape[0]:
                raise ValueError("entry id/coordinate length mismatch")
        elif self.entry_coords.shape[0]:
            raise ValueError("internal nodes cannot hold leaf entries")
        self.mbr = EMPTY_MBR
        self.recompute_mbr()

    # ------------------------------------------------------------------
    @property
    def is_leaf(self) -> bool:
        return self.level == 0

    @property
    def fanout(self) -> int:
        """Number of slots in use (entries for leaves, children otherwise)."""
        return self.entry_coords.shape[0] if self.is_leaf else len(self.children)

    def recompute_mbr(self) -> None:
        """Refresh ``mbr`` from the current entries/children."""
        if self.is_leaf:
            self.mbr = mbr_of_coords(self.entry_coords)
        elif self.children:
            self.mbr = (
                min(c.mbr[0] for c in self.children),
                min(c.mbr[1] for c in self.children),
                max(c.mbr[2] for c in self.children),
                max(c.mbr[3] for c in self.children),
            )
        else:
            self.mbr = EMPTY_MBR

    def mbr_intersects(self, other_mbr: tuple[float, float, float, float]) -> bool:
        """Closed intersection test between this node's MBR and another."""
        return (
            self.mbr[0] <= other_mbr[2]
            and other_mbr[0] <= self.mbr[2]
            and self.mbr[1] <= other_mbr[3]
            and other_mbr[1] <= self.mbr[3]
        )

    def child_mbr_array(self) -> np.ndarray:
        """Stack of child MBRs as an ``(k, 4)`` array (internal nodes)."""
        if self.is_leaf:
            raise ValueError("leaf nodes have no child MBRs")
        return np.array([c.mbr for c in self.children], dtype=np.float64).reshape(-1, 4)

    def walk(self) -> Iterator["Node"]:
        """Pre-order traversal of the subtree rooted here."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(node.children)

    def __repr__(self) -> str:
        kind = "leaf" if self.is_leaf else f"internal(level={self.level})"
        return f"Node({kind}, fanout={self.fanout})"
