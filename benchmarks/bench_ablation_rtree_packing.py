"""Ablation: R-tree construction strategy vs join cost.

DESIGN.md §6.4: the reference join (the denominator of every relative
metric in Figure 7) uses STR-packed trees.  This bench compares STR,
Hilbert packing, and dynamic Guttman insertion on build time and on the
cost of the join they support, plus tree-quality stats in extra_info.
Every variant joins through the flat kernel; inserted trees are
flattened with their node structure (``FlatRTree.from_tree``).
Dynamic insertion is orders of magnitude slower to build (the paper's
R-trees were insertion-built, which makes our Bld.Time percentages
conservative — see EXPERIMENTS.md).
"""

from __future__ import annotations

import pytest

from repro.rtree import (
    FlatRTree,
    RTree,
    flat_join_count,
    flat_load_hilbert,
    flat_load_str,
)

LOADERS = {
    "str": flat_load_str,
    "hilbert": flat_load_hilbert,
    "dynamic": lambda rects: FlatRTree.from_tree(RTree.from_rect_array(rects)),
    "dynamic-rstar": lambda rects: FlatRTree.from_tree(
        RTree.from_rect_array(rects, split="rstar")
    ),
}


@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_tree_build(benchmark, pair_context, loader):
    ctx = pair_context
    benchmark.group = f"ablation-packing-build-{ctx.name}"
    rects = ctx.ds1.rects
    if loader.startswith("dynamic") and len(rects) > 30_000:
        pytest.skip("dynamic insertion at this scale would dominate the run")

    tree = benchmark(lambda: LOADERS[loader](rects))
    benchmark.extra_info["height"] = tree.height
    benchmark.extra_info["leaf_fill"] = round(len(tree) / len(tree.level_mbrs[0]), 1)


@pytest.mark.parametrize("loader", sorted(LOADERS))
def test_join_on_packed_trees(benchmark, pair_context, loader):
    ctx = pair_context
    benchmark.group = f"ablation-packing-join-{ctx.name}"
    if loader.startswith("dynamic") and (len(ctx.ds1) + len(ctx.ds2)) > 60_000:
        pytest.skip("dynamic insertion at this scale would dominate the run")
    tree1 = LOADERS[loader](ctx.ds1.rects)
    tree2 = LOADERS[loader](ctx.ds2.rects)

    count = benchmark(lambda: flat_join_count(tree1, tree2))
    assert count == ctx.actual_pairs  # packing never changes the result
