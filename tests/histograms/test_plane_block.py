"""GH files as one plane block: every construction path yields it.

A :class:`GHHistogram` keeps ``c, h, o, v`` as the rows of one
C-contiguous ``(4, cells)`` array, ``planes``; the optimizer matrix
reads ``[C|H]`` and ``[O|V]`` as views of it, and ``histogram_parts``
persists it as is.  Each test here builds a histogram one way and checks
that invariant, plus that the block's arithmetic matches the per-plane
arithmetic it replaced.
"""

import pickle
from itertools import combinations

import numpy as np
import pytest

from repro.datasets import SpatialDataset
from repro.geometry import Rect
from repro.histograms import (
    GHHistogram,
    apply_updates,
    fused_selectivity_matrix,
    histogram_from_bytes,
    histogram_to_bytes,
    merge_histograms,
)
from repro.histograms.file import STAT_PLANES, histogram_from_parts, histogram_parts
from repro.perf import HistogramCache
from repro.service import FaultPlan, FaultSpec, inject_faults
from repro.store import ArtifactCatalog
from tests.conftest import random_rects


def assert_block(hist: GHHistogram) -> None:
    """``planes`` is one C-contiguous (4, cells) block whose rows are c, h, o, v."""
    block = hist.planes
    assert block.shape == (4, hist.grid.cell_count)
    assert block.flags.c_contiguous
    start = block.__array_interface__["data"][0]
    for row, name in enumerate(("c", "h", "o", "v")):
        plane = getattr(hist, name)
        assert plane.shape == (hist.grid.cell_count,), name
        assert plane.__array_interface__["data"][0] == start + row * block.strides[0], name
        assert np.shares_memory(plane, block), name


@pytest.fixture
def dataset(rng):
    return SpatialDataset("blk", random_rects(rng, 300), Rect.unit())


@pytest.fixture
def other(rng):
    return SpatialDataset("oth", random_rects(rng, 120), Rect.unit())


class TestConstructionPaths:
    def test_build(self, dataset):
        assert_block(GHHistogram.build(dataset, 4))

    def test_build_empty(self):
        empty = SpatialDataset("e", random_rects(np.random.default_rng(0), 0), Rect.unit())
        assert_block(GHHistogram.build(empty, 3))

    def test_store_memmap_load(self, tmp_path, dataset):
        store = ArtifactCatalog(tmp_path / "store")
        key = HistogramCache.key_for(dataset, "gh", 5)
        built = GHHistogram.build(dataset, 5)
        assert store.put_histogram(key, built)
        loaded = store.load_histogram(key)
        assert isinstance(loaded.planes, np.memmap)
        assert_block(loaded)
        assert np.array_equal(loaded.planes, built.planes)

    def test_from_parts(self, dataset):
        built = GHHistogram.build(dataset, 4)
        scalars, stats = histogram_parts(built)
        rebuilt = histogram_from_parts(scalars, stats.copy())
        assert_block(rebuilt)
        assert np.array_equal(rebuilt.planes, built.planes)

    def test_from_bytes(self, dataset):
        built = GHHistogram.build(dataset, 4)
        loaded = histogram_from_bytes(histogram_to_bytes(built))
        assert_block(loaded)
        assert np.array_equal(loaded.planes, built.planes)

    def test_apply_updates(self, dataset, other):
        updated = apply_updates(
            GHHistogram.build(dataset, 4), added=other.rects, removed=dataset.rects[np.arange(50)]
        )
        assert_block(updated)

    def test_merge(self, dataset, other):
        assert_block(merge_histograms(GHHistogram.build(dataset, 4), GHHistogram.build(other, 4)))

    def test_mutate_hook_returning_fresh_arrays(self, dataset):
        """A fault hook hands back four new arrays; the constructor packs them."""
        fresh = []

        def replace_planes(planes):
            out = tuple(np.array(p) + 1.0 for p in planes)
            fresh.extend(out)
            return out

        plan = FaultPlan([FaultSpec("gh.build.cells", "corrupt", corruption=replace_planes)])
        with inject_faults(plan):
            hist = GHHistogram.build(dataset, 4)
        assert_block(hist)
        reference = GHHistogram.build(dataset, 4)
        # The hook sees (c, o, h, v); each lands in its own row.
        for name, value in zip(("c", "o", "h", "v"), fresh):
            assert not np.shares_memory(getattr(hist, name), value)
            assert np.array_equal(getattr(hist, name), getattr(reference, name) + 1.0)

    def test_planes_passed_separately_are_packed(self, dataset):
        built = GHHistogram.build(dataset, 3)
        copies = {name: getattr(built, name).copy() for name in ("c", "o", "h", "v")}
        packed = GHHistogram(grid=built.grid, count=built.count, **copies)
        assert_block(packed)
        assert np.array_equal(packed.planes, built.planes)
        assert packed.estimate_selectivity(built) == built.estimate_selectivity(built)

    def test_rows_of_a_block_in_another_order_are_packed(self, dataset):
        built = GHHistogram.build(dataset, 3)
        c, h, o, v = built.planes
        swapped = GHHistogram(grid=built.grid, count=built.count, c=c, o=h, h=o, v=v)
        assert_block(swapped)
        assert not np.shares_memory(swapped.planes, built.planes)
        assert np.array_equal(swapped.o, built.h)

    def test_pickle(self, dataset):
        built = GHHistogram.build(dataset, 4)
        back = pickle.loads(pickle.dumps(built))
        assert_block(back)
        assert np.array_equal(back.planes, built.planes)


class TestPersistedOrder:
    def test_stat_planes_is_the_block_order(self):
        assert STAT_PLANES["gh"] == ("c", "h", "o", "v")

    def test_histogram_parts_returns_the_block_itself(self, dataset):
        built = GHHistogram.build(dataset, 4)
        _, stats = histogram_parts(built)
        assert stats is built.planes
        assert np.shares_memory(stats, built.c)


def _per_plane_update(hist, added, removed):
    """apply_updates as per-plane arithmetic: copy, add each delta, floor."""
    values = {name: getattr(hist, name).copy() for name in ("c", "o", "h", "v")}
    for rects, sign in ((added, +1.0), (removed, -1.0)):
        delta = GHHistogram.build(
            SpatialDataset("delta", rects, hist.grid.extent), hist.grid.level, extent=hist.grid.extent
        )
        for name in values:
            values[name] += sign * getattr(delta, name)
    for name in values:
        np.maximum(values[name], 0.0, out=values[name])
    return values


class TestBlockArithmetic:
    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_apply_updates_matches_per_plane(self, seed):
        rng = np.random.default_rng(seed)
        base = SpatialDataset("base", random_rects(rng, 400), Rect.unit())
        added = random_rects(rng, 150)
        removed = base.rects[np.arange(0, 400, 3)]
        hist = GHHistogram.build(base, 5)
        updated = apply_updates(hist, added=added, removed=removed)
        expected = _per_plane_update(hist, added, removed)
        for name, value in expected.items():
            assert np.array_equal(getattr(updated, name), value), name
        assert not np.shares_memory(updated.planes, hist.planes)

    @pytest.mark.parametrize("seed", [3, 17, 29])
    def test_merge_matches_per_plane(self, seed):
        rng = np.random.default_rng(seed)
        first = GHHistogram.build(SpatialDataset("a", random_rects(rng, 250), Rect.unit()), 5)
        second = GHHistogram.build(SpatialDataset("b", random_rects(rng, 90), Rect.unit()), 5)
        merged = merge_histograms(first, second)
        for name in ("c", "o", "h", "v"):
            assert np.array_equal(getattr(merged, name), getattr(first, name) + getattr(second, name))


class TestMatrixMechanism:
    def test_two_dots_per_pair_on_block_views(self, rng, monkeypatch):
        """k files issue exactly k(k-1) dots, each on 2·cells-long views of
        the files' blocks — no copies, no per-plane dots."""
        histograms = [
            GHHistogram.build(SpatialDataset(f"m{i}", random_rects(rng, 80 + 20 * i)), 4)
            for i in range(4)
        ]
        calls = []
        dot = np.dot

        def spy(x, y):
            calls.append((x, y))
            return dot(x, y)

        monkeypatch.setattr(np, "dot", spy)
        values = fused_selectivity_matrix(histograms)
        monkeypatch.undo()
        k = len(histograms)
        assert len(values) == k * (k - 1) // 2
        assert len(calls) == k * (k - 1)
        cells = histograms[0].grid.cell_count
        blocks = [hist.planes for hist in histograms]
        for x, y in calls:
            for operand in (x, y):
                assert operand.shape == (2 * cells,)
                assert operand.base is not None  # a view, not a copy
                assert sum(np.shares_memory(operand, block) for block in blocks) == 1
        # Each pair (a, b) reads [C|H] of one file against [O|V] of the other.
        for (a, b), (x1, y1), (x2, y2) in zip(
            combinations(blocks, 2), calls[0::2], calls[1::2]
        ):
            assert np.shares_memory(x1, a[:2]) and np.shares_memory(y1, b[2:])
            assert np.shares_memory(x2, b[:2]) and np.shares_memory(y2, a[2:])
