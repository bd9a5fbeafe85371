"""The in-process cache tiers follow the catalog they are layered over.

Every :class:`~repro.perf.HistogramCache` or
:class:`~repro.perf.FlatTreeCache` built with ``store=`` attaches to the
catalog.  A removal (invalidate, evict) drops the key from each attached
tier before it unlinks the entry, so no tier keeps an unlinked file
mapped; a publish that writes its entry installs the object it wrote,
so the next read is an L1 hit on the bits the store holds.
"""

import gc
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import SpatialDataset
from repro.geometry import Rect, RectArray
from repro.histograms import GHHistogram
from repro.histograms.file import histogram_parts
from repro.histograms.maintenance import apply_updates
from repro.perf import FlatTreeCache, HistogramCache
from repro.rtree import flat_load_str
from repro.runtime import runtime_scope
from repro.store import ArtifactCatalog
from tests.conftest import random_rects

LEVEL = 4


@pytest.fixture
def store(tmp_path):
    return ArtifactCatalog(tmp_path / "store")


def _movable(rng, name: str, n: int = 120) -> SpatialDataset:
    """A dataset with room to move right inside the unit square."""
    return SpatialDataset(name, random_rects(rng, n, extent=Rect(0.0, 0.0, 0.9, 1.0)), Rect.unit())


def _mapped_paths(cache: HistogramCache) -> "list[Path]":
    """The files the retained GH entries' plane blocks map."""
    with cache._lock:
        values = list(cache._entries.values())
    paths = []
    for value in values:
        array = getattr(value, "planes", None)
        while isinstance(array, np.ndarray):
            if isinstance(array, np.memmap):
                paths.append(Path(array.filename))
                break
            array = array.base
    return paths


def _deleted_mappings(root: Path) -> "list[str]":
    """Lines of this process's memory map naming an unlinked file under
    ``root`` (Linux only; empty elsewhere)."""
    maps = Path("/proc/self/maps")
    if not maps.exists():
        return []
    prefix = str(root.resolve())
    return [
        line for line in maps.read_text().splitlines()
        if line.endswith("(deleted)") and prefix in line
    ]


def _sum_of_sizes(cache) -> int:
    with cache._lock:
        return sum(cache._size(value) for value in cache._entries.values())


class TestMaintenanceWritesThrough:
    def test_maintained_write_is_an_l1_hit_on_the_maintained_object(self, store, rng):
        ds = _movable(rng, "t")
        cache = HistogramCache(store=store)
        hist, source = cache.resolve(ds, "gh", LEVEL)
        assert source == "build"
        stale_key = HistogramCache.key_for(ds, "gh", LEVEL)
        idx = np.arange(10)
        removed = ds.rects[idx]
        added = RectArray(removed.xmin + 0.05, removed.ymin, removed.xmax + 0.05, removed.ymax)
        ds.rects.xmin[idx] = added.xmin
        ds.rects.xmax[idx] = added.xmax
        ds.mark_mutated()
        new_key = HistogramCache.key_for(ds, "gh", LEVEL)
        maintained = apply_updates(
            hist, added=added, removed=removed, store=store,
            stale_key=stale_key, republish_key=new_key, dataset=ds,
        )
        assert stale_key not in cache
        hits_before = store.stats.hits
        answer, source = cache.resolve(ds, "gh", LEVEL)
        assert source == "l1"
        assert answer is maintained
        assert store.stats.hits == hits_before
        stored = store.load_histogram(new_key)
        assert histogram_parts(stored)[1].tobytes() == histogram_parts(answer)[1].tobytes()

    def test_move_undo_cycles_leave_no_unlinked_mapping(self, tmp_path, rng):
        root = tmp_path / "store"
        writer = ArtifactCatalog(root)
        datasets = [_movable(rng, name) for name in ("a", "b", "c")]
        hists = {}
        for ds in datasets:
            hists[ds.name] = GHHistogram.build(ds, LEVEL)
            writer.put_histogram(HistogramCache.key_for(ds, "gh", LEVEL), hists[ds.name])
        # The reader maps every entry from the store, so the L1 holds
        # mappings the writes below make stale.
        cache = HistogramCache(store=writer)
        assert all(cache.resolve(ds, "gh", LEVEL)[1] == "store" for ds in datasets)
        assert len(_mapped_paths(cache)) == len(datasets)
        dead = set()
        for cycle in range(3):
            ds = datasets[cycle % len(datasets)]
            idx = np.arange(cycle, cycle + 8)
            original = ds.rects[idx]
            moved = RectArray(original.xmin + 0.05, original.ymin, original.xmax + 0.05, original.ymax)
            for removed, added in ((original, moved), (moved, original)):
                stale_key = HistogramCache.key_for(ds, "gh", LEVEL)
                ds.rects.xmin[idx] = added.xmin
                ds.rects.xmax[idx] = added.xmax
                ds.mark_mutated()
                new_key = HistogramCache.key_for(ds, "gh", LEVEL)
                hists[ds.name] = apply_updates(
                    hists[ds.name], added=added, removed=removed, store=writer,
                    stale_key=stale_key, republish_key=new_key, dataset=ds,
                )
                dead.add(stale_key)
                dead.discard(new_key)
                assert cache.resolve(ds, "gh", LEVEL)[1] == "l1"
        assert not dead & set(cache.keys())
        assert all(path.exists() for path in _mapped_paths(cache))
        gc.collect()
        assert _deleted_mappings(root) == []


class TestPublishInstalls:
    def test_nothing_is_installed_under_a_fault_hook(self, store, rng):
        ds = _movable(rng, "t")
        cache = HistogramCache(store=store)
        key = HistogramCache.key_for(ds, "gh", LEVEL)

        class Hook:
            def on_checkpoint(self, stage):
                pass

        with runtime_scope(hook=Hook()):
            assert store.put_histogram(key, GHHistogram.build(ds, LEVEL))
        assert len(cache) == 0
        assert cache.resolve(ds, "gh", LEVEL)[1] == "store"

    def test_republishing_an_existing_entry_installs_nothing(self, store, rng):
        ds = _movable(rng, "t")
        key = HistogramCache.key_for(ds, "gh", LEVEL)
        first = GHHistogram.build(ds, LEVEL)
        assert store.put_histogram(key, first)
        cache = HistogramCache(store=store)
        mapped, source = cache.resolve(ds, "gh", LEVEL)
        assert source == "store"
        # Different bits under the same key: the store keeps its entry,
        # so the L1 must keep the mapping of it.
        other = GHHistogram.build(_movable(rng, "u"), LEVEL, extent=ds.extent)
        assert store.put_histogram(key, other)
        answer, source = cache.resolve(ds, "gh", LEVEL)
        assert source == "l1" and answer is mapped
        stored = store.load_histogram(key)
        assert histogram_parts(stored)[1].tobytes() == histogram_parts(mapped)[1].tobytes()
        assert histogram_parts(mapped)[1].tobytes() == histogram_parts(first)[1].tobytes()

    def test_own_build_publish_keeps_order_and_counters(self, store):
        """A cache over a catalog retains and counts exactly as one with
        no catalog: its own publish does not install into itself."""
        rng = np.random.default_rng(7)
        datasets = [
            SpatialDataset(f"d{i}", random_rects(rng, n, max_side=0.2))
            for i, n in enumerate((5, 400, 20, 900, 60, 10))
        ]
        budget = 3 * GHHistogram.build(datasets[0], LEVEL).size_bytes
        plain = HistogramCache(max_bytes=budget)
        stored = HistogramCache(max_bytes=budget, store=store)
        for ds in datasets:  # no revisits: an evicted key would reload from the store
            for cache in (plain, stored):
                cache.resolve(ds, "gh", LEVEL)
            assert stored.keys() == plain.keys()
            assert stored.stats.snapshot() == plain.stats.snapshot()
        assert store.stats.publishes == len(datasets)

    def test_trees_follow_too(self, store, rng):
        rects = random_rects(rng, 300)
        trees = FlatTreeCache(store=store)
        key = FlatTreeCache.key_for(rects, "str", 8)
        built = flat_load_str(rects, max_entries=8)
        assert store.put_tree(key, built)
        answer, source = trees.resolve(rects, "str", max_entries=8)
        assert source == "l1" and answer is built
        assert store.invalidate(key)
        assert key not in trees


class TestRemovalsDrop:
    def test_evicting_a_mapped_entry_releases_it(self, tmp_path, rng):
        store = ArtifactCatalog(tmp_path / "store")
        datasets = [_movable(rng, name) for name in ("a", "b", "c")]
        for ds in datasets:
            store.put_histogram(HistogramCache.key_for(ds, "gh", LEVEL), GHHistogram.build(ds, LEVEL))
        cache = HistogramCache(store=store)
        for ds in datasets:
            assert cache.resolve(ds, "gh", LEVEL)[1] == "store"
        removed = store.evict(max_bytes=store.total_bytes() - 1)
        assert len(removed) == 1
        assert len(cache) == len(datasets) - 1
        assert all(path.exists() for path in _mapped_paths(cache))

    def test_a_collected_cache_leaves_the_registry(self, store):
        cache = HistogramCache(store=store)
        trees = FlatTreeCache(store=store)
        assert set(store._tiers) == {cache, trees}
        del cache
        gc.collect()
        assert set(store._tiers) == {trees}


class TestLoadsRacingRemovals:
    """A store load the catalog removes while it loads is returned but
    not retained: a retained load would pin an unlinked file under a
    dead key."""

    def test_a_histogram_invalidated_mid_load_is_not_retained(self, store, rng, monkeypatch):
        ds = _movable(rng, "t")
        key = HistogramCache.key_for(ds, "gh", LEVEL)
        built = GHHistogram.build(ds, LEVEL)
        assert store.put_histogram(key, built)
        cache = HistogramCache(store=store)
        load = ArtifactCatalog.load_histogram

        def load_then_invalidate(catalog, wanted):
            loaded = load(catalog, wanted)
            assert catalog.invalidate(wanted)
            return loaded

        monkeypatch.setattr(ArtifactCatalog, "load_histogram", load_then_invalidate)
        hist, source = cache.resolve(ds, "gh", LEVEL)
        assert source == "store"
        assert histogram_parts(hist)[1].tobytes() == histogram_parts(built)[1].tobytes()
        assert key not in cache
        assert len(cache) == cache.current_bytes == 0

    def test_a_tree_invalidated_mid_load_is_not_retained(self, store, rng, monkeypatch):
        rects = random_rects(rng, 300)
        key = FlatTreeCache.key_for(rects, "str", 8)
        assert store.put_tree(key, flat_load_str(rects, max_entries=8))
        trees = FlatTreeCache(store=store)
        load = ArtifactCatalog.load_tree

        def load_then_invalidate(catalog, wanted):
            loaded = load(catalog, wanted)
            assert catalog.invalidate(wanted)
            return loaded

        monkeypatch.setattr(ArtifactCatalog, "load_tree", load_then_invalidate)
        assert trees.resolve(rects, "str", max_entries=8)[1] == "store"
        assert key not in trees
        assert len(trees) == 0

    def test_a_load_between_the_drop_and_the_unlink_is_dropped(self, store, rng, monkeypatch):
        """The catalog drops the key from its tiers again after the
        unlink, so a load that mapped the entry in between goes too."""
        ds = _movable(rng, "t")
        key = HistogramCache.key_for(ds, "gh", LEVEL)
        assert store.put_histogram(key, GHHistogram.build(ds, LEVEL))
        cache = HistogramCache(store=store)
        discard = cache.discard
        sources = []

        def discard_then_load(dropped):
            discard(dropped)
            if not sources:
                sources.append(cache.resolve(ds, "gh", LEVEL)[1])

        monkeypatch.setattr(cache, "discard", discard_then_load)
        assert store.invalidate(key)
        assert sources == ["store"]
        assert key not in cache


def test_racing_resolves_and_writes_keep_the_byte_count(store, rng):
    """Six threads, switching every microsecond: resolves against
    invalidations and publishes of the same keys.  Whatever the
    interleaving, the byte count is what the retained entries hold."""
    datasets = [SpatialDataset(f"r{i}", random_rects(rng, 40 + 30 * i)) for i in range(4)]
    keys = [HistogramCache.key_for(ds, "gh", LEVEL) for ds in datasets]
    builds = [GHHistogram.build(ds, LEVEL) for ds in datasets]
    cache = HistogramCache(max_bytes=3 * builds[0].size_bytes, store=store)
    errors: "list[BaseException]" = []

    def reader(offset: int) -> None:
        for i in range(60):
            cache.resolve(datasets[(i + offset) % len(datasets)], "gh", LEVEL)

    def writer(offset: int) -> None:
        for i in range(60):
            j = (i + offset) % len(datasets)
            store.invalidate(keys[j])
            store.put_histogram(keys[j], builds[j])

    def guarded(target, offset):
        try:
            target(offset)
        except Exception as exc:  # surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=guarded, args=(target, offset))
            for offset in range(3)
            for target in (reader, writer)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert cache.current_bytes == _sum_of_sizes(cache) <= cache.max_bytes
    with cache._lock:
        assert set(cache._rank) == set(cache._entries)
