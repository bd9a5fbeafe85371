"""R-tree substrate: dynamic Guttman tree, packed loaders, queries, join.

The paper indexes datasets (and samples) with R-trees and computes the
actual join — the estimators' ground truth — via synchronized traversal.
Every join runs one kernel, the flat structure-of-arrays tree
(:class:`FlatRTree`, :func:`flat_join_count`): the sampling estimators'
sample joins, the reference join the relative costs divide by, and the
exact ``method="rtree"`` engine.  The pointer-based object tree
(:class:`RTree`) keeps insertion, deletion and window queries;
:meth:`FlatRTree.from_tree` flattens it, node structure intact, when an
insertion-built tree must be joined.
"""

from .bulk import (
    bulk_load_hilbert,
    bulk_load_str,
    hilbert_center_order,
    pack_sorted,
    str_order,
)
from .flat import (
    BYTES_PER_ENTRY,
    FlatRTree,
    flat_join_count,
    flat_join_pairs,
    flat_load_hilbert,
    flat_load_str,
    tree_size_bytes,
)
from .node import Node
from .query import count_intersecting, search_contained, search_intersecting
from .rtree import DEFAULT_MAX_ENTRIES, RTree

__all__ = [
    "RTree",
    "Node",
    "FlatRTree",
    "DEFAULT_MAX_ENTRIES",
    "bulk_load_str",
    "bulk_load_hilbert",
    "pack_sorted",
    "str_order",
    "hilbert_center_order",
    "flat_load_str",
    "flat_load_hilbert",
    "flat_join_count",
    "flat_join_pairs",
    "search_intersecting",
    "search_contained",
    "count_intersecting",
    "tree_size_bytes",
    "BYTES_PER_ENTRY",
]
