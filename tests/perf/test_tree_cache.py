"""FlatTreeCache: content addressing, byte budget, hit/miss counters,
fault-scope hygiene, and the estimator integration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import SpatialDataset
from repro.perf import FlatTreeCache, TreeCacheKey, rects_fingerprint
from repro.rtree import FlatRTree, flat_join_count, flat_load_str
from repro.runtime import runtime_scope
from repro.sampling import SamplingJoinEstimator
from tests.conftest import random_rects


@pytest.fixture
def rects(rng):
    return random_rects(rng, 300)


class TestRectsFingerprint:
    def test_deterministic_and_content_addressed(self, rects):
        assert rects_fingerprint(rects) == rects_fingerprint(rects)
        copy = rects[np.arange(len(rects))]
        assert rects_fingerprint(copy) == rects_fingerprint(rects)

    def test_any_coordinate_change_changes_it(self, rects):
        base = rects_fingerprint(rects)
        perturbed = rects[np.arange(len(rects))]
        perturbed.xmin[17] += 1e-9
        assert rects_fingerprint(perturbed) != base

    def test_domain_separated_from_datasets(self, rects):
        # A dataset over the same rects hashes extent + a different tag;
        # the two fingerprint spaces must not collide.
        from repro.perf import dataset_fingerprint

        ds = SpatialDataset("d", rects)
        assert dataset_fingerprint(ds) != rects_fingerprint(rects)


class TestGetOrBuild:
    def test_miss_builds_then_hits(self, rects):
        cache = FlatTreeCache()
        t1 = cache.get_or_build(rects)
        t2 = cache.get_or_build(rects)
        assert t1 is t2
        assert isinstance(t1, FlatRTree)
        assert cache.stats.misses == 1 and cache.stats.builds == 1
        assert cache.stats.hits == 1
        assert cache.stats.hit_rate == 0.5

    def test_cached_tree_joins_identically_to_fresh(self, rects, rng):
        cache = FlatTreeCache()
        other = random_rects(rng, 200)
        cached = cache.get_or_build(rects)
        fresh = flat_load_str(rects)
        fo = flat_load_str(other)
        assert flat_join_count(cached, fo) == flat_join_count(fresh, fo)

    def test_packing_and_max_entries_are_part_of_the_key(self, rects):
        cache = FlatTreeCache()
        cache.get_or_build(rects, "str")
        cache.get_or_build(rects, "hilbert")
        cache.get_or_build(rects, "str", max_entries=8)
        assert len(cache) == 3
        assert cache.stats.hits == 0

    def test_key_for_rejects_unknown_packing(self, rects):
        with pytest.raises(ValueError, match="packing"):
            FlatTreeCache.key_for(rects, "zcurve")

    def test_key_is_content_addressed(self, rects):
        key = FlatTreeCache.key_for(rects)
        assert key == TreeCacheKey(rects_fingerprint(rects), "str", 32)


class TestRetention:
    def test_lru_eviction_within_budget(self, rng):
        parts = [random_rects(rng, 120) for _ in range(4)]
        one_tree = flat_load_str(parts[0]).size_bytes
        cache = FlatTreeCache(max_bytes=int(one_tree * 2.5))
        for p in parts:
            cache.get_or_build(p)
        assert cache.stats.evictions >= 1
        assert cache.current_bytes <= cache.max_bytes
        # Most recent entry survives.
        assert FlatTreeCache.key_for(parts[-1]) in cache

    def test_budget_holds_across_differing_tree_sizes(self, rng):
        """Cost-aware eviction still keeps the byte budget exact when
        trees of very different N (and cost per byte) compete."""
        parts = [random_rects(rng, n) for n in (40, 900, 120, 300, 60, 900, 200, 40)]
        sizes = {FlatTreeCache.key_for(p): flat_load_str(p).size_bytes for p in parts}
        cache = FlatTreeCache(max_bytes=int(max(sizes.values()) * 1.5))
        for _ in range(3):
            for p in parts:
                cache.get_or_build(p)
                assert cache.current_bytes <= cache.max_bytes
                assert cache.current_bytes == sum(sizes[k] for k in cache.keys())
        assert cache.stats.evictions >= 1
        assert cache.stats.hits + cache.stats.misses == 3 * len(parts)

    def test_oversized_entry_served_but_not_retained(self, rects):
        cache = FlatTreeCache(max_bytes=64)
        tree = cache.get_or_build(rects)
        assert isinstance(tree, FlatRTree)
        assert len(cache) == 0

    def test_clear_preserves_counters(self, rects):
        cache = FlatTreeCache()
        cache.get_or_build(rects)
        cache.clear()
        assert len(cache) == 0 and cache.current_bytes == 0
        assert cache.stats.builds == 1

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError, match="max_bytes"):
            FlatTreeCache(max_bytes=0)

    def test_build_under_fault_hook_is_not_retained(self, rects):
        class PassthroughHook:
            def on_mutate(self, stage, value):
                return value

        cache = FlatTreeCache()
        with runtime_scope(hook=PassthroughHook()):
            tree = cache.get_or_build(rects)
        assert isinstance(tree, FlatRTree)
        assert len(cache) == 0
        cache.get_or_build(rects)
        assert len(cache) == 1


class TestEstimatorIntegration:
    def test_repeat_estimates_hit_the_cache(self, rng):
        ds1 = SpatialDataset("a", random_rects(rng, 400))
        ds2 = SpatialDataset("b", random_rects(rng, 300))
        cache = FlatTreeCache()
        est = SamplingJoinEstimator("rs", 0.5, 0.5, tree_cache=cache)
        v1 = est.estimate(ds1, ds2)
        v2 = est.estimate(ds1, ds2)
        assert v1 == v2
        assert cache.stats.builds == 2  # one per side, once
        assert cache.stats.hits == 2

    def test_cache_does_not_change_the_estimate(self, rng):
        ds1 = SpatialDataset("a", random_rects(rng, 400))
        ds2 = SpatialDataset("b", random_rects(rng, 300))
        plain = SamplingJoinEstimator("ss", 0.4, 0.4, seed=9)
        cached = SamplingJoinEstimator("ss", 0.4, 0.4, seed=9, tree_cache=FlatTreeCache())
        assert plain.estimate(ds1, ds2) == cached.estimate(ds1, ds2)

    def test_confidence_interval_identical_with_and_without_cache(self, rng):
        ds1 = SpatialDataset("a", random_rects(rng, 250))
        ds2 = SpatialDataset("b", random_rects(rng, 250))
        plain = SamplingJoinEstimator("rswr", 0.3, 0.3, seed=5)
        cached = SamplingJoinEstimator(
            "rswr", 0.3, 0.3, seed=5, tree_cache=FlatTreeCache()
        )
        a = plain.estimate_with_confidence(ds1, ds2, repeats=4)
        b = cached.estimate_with_confidence(ds1, ds2, repeats=4)
        assert a == b
