"""Cache correctness: fingerprints, LRU policy, budgets, derivation."""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro.perf.cache as cache_module
from repro.datasets import SpatialDataset
from repro.geometry import Rect
from repro.histograms import GHHistogram, PHHistogram
from repro.histograms.file import histogram_parts
from repro.perf import CacheKey, FlatTreeCache, HistogramCache, dataset_fingerprint
from repro.rtree import flat_load_str
from repro.runtime import runtime_scope
from tests.conftest import random_rects


@pytest.fixture
def dataset(rng) -> SpatialDataset:
    return SpatialDataset("ds", random_rects(rng, 400))


def _make(rng, n=300, name="d") -> SpatialDataset:
    return SpatialDataset(name, random_rects(rng, n))


class TestFingerprint:
    def test_deterministic(self, dataset):
        assert dataset_fingerprint(dataset) == dataset_fingerprint(dataset)

    def test_name_does_not_matter(self, dataset):
        renamed = SpatialDataset("other-name", dataset.rects, dataset.extent)
        assert dataset_fingerprint(renamed) == dataset_fingerprint(dataset)

    def test_changes_on_dataset_mutation(self, dataset):
        """A sanctioned geometry change — an in-place array mutation
        announced via ``mark_mutated()`` — produces a different
        fingerprint (content addressing must never serve stale
        statistics for mutated data)."""
        before = dataset_fingerprint(dataset)
        dataset.rects.xmax[0] = min(dataset.rects.xmax[0] + 1e-9, 1.0)
        dataset.mark_mutated()
        assert dataset_fingerprint(dataset) != before

    def test_unsanctioned_mutation_caught_by_audit(self, dataset):
        """Mutating arrays without ``mark_mutated()`` is a contract
        violation; the periodic audit recomputes from bytes and raises
        rather than serving a stale digest."""
        from repro.errors import InvalidDatasetError
        from repro.perf import audit_fingerprint

        dataset_fingerprint(dataset)  # prime the token memo
        dataset.rects.xmax[0] = min(dataset.rects.xmax[0] + 1e-9, 1.0)
        with pytest.raises(InvalidDatasetError, match="mark_mutated"):
            audit_fingerprint(dataset)

    def test_changes_on_subset(self, dataset):
        assert dataset_fingerprint(dataset.subset(np.arange(10))) != dataset_fingerprint(
            dataset
        )

    def test_changes_with_extent(self, dataset):
        grown = dataset.with_extent(Rect(-1.0, -1.0, 2.0, 2.0))
        assert dataset_fingerprint(grown) != dataset_fingerprint(dataset)


class TestHitSemantics:
    def test_hit_is_bit_identical_to_cold_build(self, dataset):
        cache = HistogramCache()
        cold = GHHistogram.build(dataset, 5)
        first = cache.get_or_build(dataset, "gh", 5)
        hit = cache.get_or_build(dataset, "gh", 5)
        assert hit is first  # same retained object, no rebuild
        for cached_arr, cold_arr in zip(
            (hit.c, hit.o, hit.h, hit.v), (cold.c, cold.o, cold.h, cold.v)
        ):
            assert np.array_equal(cached_arr, cold_arr)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.builds == 1

    def test_schemes_do_not_collide(self, dataset):
        cache = HistogramCache()
        gh = cache.get_or_build(dataset, "gh", 4)
        ph = cache.get_or_build(dataset, "ph", 4)
        assert isinstance(gh, GHHistogram)
        assert isinstance(ph, PHHistogram)
        assert cache.stats.hits == 0

    def test_mutated_data_misses(self, rng):
        cache = HistogramCache()
        ds = _make(rng)
        cache.get_or_build(ds, "gh", 4)
        ds.rects.ymin[3] = ds.rects.ymin[3] / 2.0
        ds.mark_mutated()
        cache.get_or_build(ds, "gh", 4)
        assert cache.stats.misses == 2
        assert cache.stats.hits == 0

    def test_unknown_scheme_rejected(self, dataset):
        with pytest.raises(ValueError, match="unknown scheme"):
            HistogramCache().get_or_build(dataset, "nope", 3)


class TestLRUAndBudget:
    def test_eviction_is_lru_ordered(self, rng):
        level = 5
        size = 8 * 4 * (1 << level) ** 2  # GH size_bytes at this level
        cache = HistogramCache(max_bytes=2 * size)
        d1, d2, d3 = (_make(rng, name=f"d{i}") for i in range(3))
        cache.get_or_build(d1, "gh", level)
        cache.get_or_build(d2, "gh", level)
        cache.get_or_build(d1, "gh", level)  # touch d1: d2 is now LRU
        cache.get_or_build(d3, "gh", level)  # evicts d2, not d1
        assert cache.stats.evictions == 1
        retained = {key.fingerprint for key in cache.keys()}
        assert dataset_fingerprint(d1) in retained
        assert dataset_fingerprint(d3) in retained
        assert dataset_fingerprint(d2) not in retained

    def test_byte_budget_enforced(self, rng):
        level = 4
        size = 8 * 4 * (1 << level) ** 2
        cache = HistogramCache(max_bytes=3 * size + size // 2)
        for i in range(8):
            cache.get_or_build(_make(rng, name=f"d{i}"), "gh", level)
            assert cache.current_bytes <= cache.max_bytes
        assert len(cache) == 3
        assert cache.stats.evictions == 5

    def test_oversize_entry_not_retained(self, dataset):
        cache = HistogramCache(max_bytes=1024)
        hist = cache.get_or_build(dataset, "gh", 6)  # 128 KiB > budget
        assert isinstance(hist, GHHistogram)
        assert len(cache) == 0
        assert cache.current_bytes == 0

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            HistogramCache(max_bytes=0)


class TestDerivation:
    def test_coarser_gh_is_derived_not_built(self, dataset):
        cache = HistogramCache()
        cache.get_or_build(dataset, "gh", 6)
        derived = cache.get_or_build(dataset, "gh", 3)
        direct = GHHistogram.build(dataset, 3)
        assert cache.stats.builds == 1
        assert cache.stats.derivations == 1
        for got, want in zip(
            (derived.c, derived.o, derived.h, derived.v),
            (direct.c, direct.o, direct.h, direct.v),
        ):
            assert np.allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_nearest_finer_donor_is_used(self, dataset):
        cache = HistogramCache()
        cache.get_or_build(dataset, "gh", 7)
        cache.get_or_build(dataset, "gh", 5)  # derived from 7
        cache.get_or_build(dataset, "gh", 4)  # derived from 5 (nearest)
        assert cache.stats.builds == 1
        assert cache.stats.derivations == 2

    def test_ph_never_derives(self, dataset):
        # PH averages are not additive across resolutions; a coarser PH
        # must rebuild even when a finer one is cached.
        cache = HistogramCache()
        cache.get_or_build(dataset, "ph", 6)
        cache.get_or_build(dataset, "ph", 3)
        assert cache.stats.builds == 2
        assert cache.stats.derivations == 0


class TestFaultScopeHygiene:
    def test_build_under_mutation_hook_is_not_cached(self, dataset):
        """A build run under an active fault hook may carry corrupted
        cells — it must be served but never retained."""

        class PassthroughHook:
            def on_mutate(self, stage, value):
                return value

        cache = HistogramCache()
        with runtime_scope(hook=PassthroughHook()):
            hist = cache.get_or_build(dataset, "gh", 4)
        assert isinstance(hist, GHHistogram)
        assert len(cache) == 0
        # Out of scope the same request builds (and retains) cleanly.
        cache.get_or_build(dataset, "gh", 4)
        assert len(cache) == 1
        assert cache.stats.builds == 2


class TestSharedTier:
    """Behaviour both caches get from their one retention tier."""

    @pytest.mark.parametrize("cache_cls", [HistogramCache, FlatTreeCache])
    def test_racing_misses_keep_one_entry(self, cache_cls, rng, monkeypatch):
        threads = 4
        barrier = threading.Barrier(threads)

        def held(build):
            def wrapper(*args, **kwargs):
                barrier.wait(timeout=30)  # every thread has missed
                return build(*args, **kwargs)

            return wrapper

        cache = cache_cls()
        if cache_cls is HistogramCache:
            dataset = _make(rng)
            monkeypatch.setattr(GHHistogram, "build", held(GHHistogram.build))

            def lookup(_):
                return cache.get_or_build(dataset, "gh", 5)

            def arrays(hist):
                return [histogram_parts(hist)[1]]
        else:
            rects = random_rects(rng, 300)
            monkeypatch.setitem(cache_module._TREE_LOADERS, "str", held(flat_load_str))

            def lookup(_):
                return cache.get_or_build(rects)

            def arrays(tree):
                return [block for _, block in sorted(tree.to_blocks().items())]

        with ThreadPoolExecutor(threads) as pool:
            results = list(pool.map(lookup, range(threads)))
        assert cache.stats.misses == threads
        assert cache.stats.builds == threads
        for result in results[1:]:
            for got, want in zip(arrays(result), arrays(results[0])):
                assert np.array_equal(got, want)
        assert len(cache) == 1
        retained = lookup(None)
        assert retained.size_bytes == cache.current_bytes


class TestKeyFor:
    def test_key_matches_lookup(self, dataset):
        cache = HistogramCache()
        cache.get_or_build(dataset, "gh", 4)
        key = HistogramCache.key_for(dataset, "gh", 4)
        assert isinstance(key, CacheKey)
        assert key in cache
