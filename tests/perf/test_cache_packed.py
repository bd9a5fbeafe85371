"""Packed L1 files: over budget, the cache keeps dense histogram files
as their occupied cells before it drops any file, and every hit on a
packed file answers ``==`` a cold build.

* pack/unpack is a ``tobytes()``-exact round trip for every scheme and
  level on the paper's datasets, on a store memmap entry and on a plane
  holding ``-0.0``;
* a cache that stays within its budget never packs;
* every dense file that can pack is packed before any file is dropped,
  so a working set whose packed files fit the budget builds each file
  once;
* a packed victim is dropped when it is the victim again, and the
  budget holds after every insert;
* a victim mapped from the store is dropped, never packed;
* a packed hit is a fresh dense file, equal to a cold build, also
  while threads race packs, drops and expansions.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.datasets import SpatialDataset, make_paper_dataset
from repro.histograms.file import (
    HISTOGRAM_SCHEMES,
    STAT_PLANES,
    PackedHistogram,
    histogram_from_parts,
    histogram_parts,
    pack_histogram,
    unpack_histogram,
)
from repro.perf import HistogramCache
from repro.store import ArtifactCatalog
from tests.conftest import random_rects

PAPER = ("TS", "TCB", "CAS", "CAR", "SP", "SPG", "SCRC", "SURA")
SCHEMES = sorted(HISTOGRAM_SCHEMES)


def _same_file(got, want) -> bool:
    """Same type, scalars and plane bytes (so ``-0.0`` is not ``0.0``)."""
    got_scalars, got_stats = histogram_parts(got)
    want_scalars, want_stats = histogram_parts(want)
    return (
        type(got) is type(want)
        and got_scalars == want_scalars
        and np.asarray(got_stats).tobytes() == np.asarray(want_stats).tobytes()
    )


@pytest.fixture(scope="module")
def paper():
    return [make_paper_dataset(name) for name in PAPER]


def _sparse(seed: int, n: int = 40) -> SpatialDataset:
    return SpatialDataset(f"s{seed}", random_rects(np.random.default_rng(seed), n))


class TestRoundTrip:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_paper_datasets_at_every_level(self, paper, scheme):
        for dataset in paper:
            for level in range(10):
                hist = HISTOGRAM_SCHEMES[scheme].build(dataset, level)
                restored = unpack_histogram(pack_histogram(hist))
                assert _same_file(restored, hist), (dataset.name, level)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_store_memmap_entry(self, tmp_path, scheme):
        dataset = _sparse(1)
        key = HistogramCache.key_for(dataset, scheme, 6)
        store = ArtifactCatalog(tmp_path)
        cold = HISTOGRAM_SCHEMES[scheme].build(dataset, 6)
        store.put_histogram(key, cold)
        stored = store.load_histogram(key)
        row = getattr(stored, STAT_PLANES[scheme][0])
        assert isinstance(row, np.memmap)  # a zero-copy row of the mapped payload
        packed = pack_histogram(stored)
        assert not isinstance(packed.values, np.memmap)
        assert _same_file(unpack_histogram(packed), cold)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_negative_zero_survives(self, scheme):
        hist = HISTOGRAM_SCHEMES[scheme].build(_sparse(2), 5)
        scalars, stats = histogram_parts(hist)
        stats = np.array(stats)
        empty = np.flatnonzero(~stats.any(axis=0))[0]
        stats[-1, empty] = -0.0
        signed = histogram_from_parts(scalars, stats)
        packed = pack_histogram(signed)
        assert empty in packed.cells
        restored = histogram_parts(unpack_histogram(packed))[1]
        assert np.signbit(restored[-1, empty])
        assert _same_file(unpack_histogram(packed), signed)

    def test_packed_bytes_are_the_occupied_cells(self):
        hist = HISTOGRAM_SCHEMES["gh"].build(_sparse(3), 6)
        packed = pack_histogram(hist)
        occupied = int(np.count_nonzero(hist.planes.any(axis=0)))
        assert len(packed.cells) == occupied
        assert packed.size_bytes == occupied * (4 + 8 * 4) < hist.size_bytes
        assert packed.count == hist.count


class TestCacheRetention:
    def test_within_budget_never_packs(self):
        cache = HistogramCache()
        datasets = [_sparse(seed) for seed in range(4)]
        first = {
            (ds.name, scheme): cache.get_or_build(ds, scheme, 6)
            for ds in datasets
            for scheme in SCHEMES
        }
        for _ in range(3):
            for ds in datasets:
                for scheme in SCHEMES:
                    assert cache.get_or_build(ds, scheme, 6) is first[(ds.name, scheme)]
        assert cache.stats.packs == 0
        assert cache.stats.evictions == 0

    def test_packed_working_set_is_built_once(self):
        """Four sparse files cycled through a budget that holds one dense
        file beside the others packed, but not all four dense: packing
        the dense large-N files before dropping the packed small-N ones
        builds each file once and drops nothing.  (Ranked by
        GreedyDual-Size alone, a packed small-N file falls below a dense
        large-N one and is dropped and rebuilt.)"""
        datasets = [_sparse(seed, n) for seed, n in enumerate((30, 30, 300, 300))]
        dense = HISTOGRAM_SCHEMES["gh"].build(datasets[0], 5).size_bytes
        packed = sorted(
            pack_histogram(HISTOGRAM_SCHEMES["gh"].build(ds, 5)).size_bytes for ds in datasets
        )
        cache = HistogramCache(max_bytes=dense + sum(packed[:-1]))
        assert cache.max_bytes < len(datasets) * dense  # the premise
        for _ in range(5):
            for dataset in datasets:
                cache.get_or_build(dataset, "gh", 5)
        assert cache.stats.builds == len(datasets)
        assert cache.stats.evictions == 0
        assert cache.stats.hits == 4 * len(datasets)

    def test_packed_victim_is_dropped_when_it_is_the_victim_again(self):
        """Distinct sparse files streamed through a budget of one dense
        file: each is packed as a victim, and only packed entries are
        ever dropped, so every pack is either still retained or counted
        as one eviction."""
        cache = HistogramCache(max_bytes=8 * 4 * (1 << 6) ** 2)  # one dense GH6 file
        for seed in range(40):
            cache.get_or_build(_sparse(seed), "gh", 6)
            assert cache.current_bytes <= cache.max_bytes
            packed = [k for k in cache.keys() if isinstance(cache._entries[k], PackedHistogram)]
            assert cache.stats.packs == len(packed) + cache.stats.evictions
        assert cache.stats.evictions > 0

    @pytest.mark.parametrize("budget", [40_000, 90_000, 200_000])
    def test_budget_holds_after_every_insert(self, budget):
        rng = np.random.default_rng(budget)
        cache = HistogramCache(max_bytes=budget)
        datasets = [_sparse(seed, n) for seed, n in enumerate((5, 40, 400, 4000))]
        for _ in range(60):
            dataset = datasets[rng.integers(len(datasets))]
            cache.get_or_build(dataset, SCHEMES[rng.integers(3)], int(rng.integers(3, 7)))
            assert cache.current_bytes <= cache.max_bytes
        assert cache.stats.packs > 0

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_packed_hit_is_a_fresh_cold_file(self, scheme):
        """Two files in a budget one byte short of both: the second
        insert packs the cheaper one, and each hit on it expands a new
        dense file equal to a cold build."""
        builder = HISTOGRAM_SCHEMES[scheme]
        small, large = _sparse(10, 30), _sparse(11, 400)
        cold_small, cold_large = builder.build(small, 6), builder.build(large, 6)
        cache = HistogramCache(max_bytes=2 * cold_small.size_bytes - 1)
        cache.get_or_build(large, scheme, 6)
        cache.get_or_build(small, scheme, 6)
        key = HistogramCache.key_for(small, scheme, 6)
        assert isinstance(cache._entries[key], PackedHistogram)
        hits = [cache.resolve(small, scheme, 6) for _ in range(2)]
        assert [source for _, source in hits] == ["l1", "l1"]
        assert hits[0][0] is not hits[1][0]
        want = cold_small.estimate_selectivity(cold_large)
        for hist, _ in hits:
            assert _same_file(hist, cold_small)
            assert hist.estimate_selectivity(cold_large) == want
        assert (cache.stats.packs, cache.stats.evictions) == (1, 0)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_store_loaded_victim_is_dropped_not_packed(self, tmp_path, scheme):
        """A victim whose planes view a store mapping is dropped: a
        reopen is cheaper than copying its occupied cells off the map,
        and the next resolve maps it again, equal to a cold build."""
        builder = HISTOGRAM_SCHEMES[scheme]
        small, large = _sparse(10, 30), _sparse(11, 400)
        store = ArtifactCatalog(tmp_path)
        cold = {}
        for dataset in (small, large):
            cold[dataset.name] = builder.build(dataset, 6)
            store.put_histogram(HistogramCache.key_for(dataset, scheme, 6), cold[dataset.name])
        cache = HistogramCache(max_bytes=2 * cold[small.name].size_bytes - 1, store=store)
        assert cache.resolve(large, scheme, 6)[1] == "store"
        assert cache.resolve(small, scheme, 6)[1] == "store"
        assert (cache.stats.packs, cache.stats.evictions) == (0, 1)
        assert cache.keys() == [HistogramCache.key_for(large, scheme, 6)]
        hist, source = cache.resolve(small, scheme, 6)
        assert source == "store"
        assert _same_file(hist, cold[small.name])

    def test_threads_racing_packs_and_expansions(self):
        """More threads than cores share one squeezed cache: every answer
        is a cold file, and the byte count is what the entries hold."""
        datasets = [_sparse(seed, n) for seed, n in enumerate((20, 40, 80, 160, 320, 640))]
        colds = {
            (ds.name, scheme): HISTOGRAM_SCHEMES[scheme].build(ds, 5)
            for ds in datasets
            for scheme in SCHEMES
        }
        cache = HistogramCache(max_bytes=3 * 8 * 8 * (1 << 5) ** 2)  # three dense PH5 files
        wrong: list = []
        rounds, threads = 60, 6

        def worker(seed: int) -> None:
            rng = np.random.default_rng(seed)
            for _ in range(rounds):
                ds = datasets[rng.integers(len(datasets))]
                scheme = SCHEMES[rng.integers(3)]
                if not _same_file(cache.get_or_build(ds, scheme, 5), colds[(ds.name, scheme)]):
                    wrong.append((ds.name, scheme))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=worker, args=(seed,)) for seed in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        assert wrong == []
        with cache._lock:
            held = sum(cache._size(value) for value in cache._entries.values())
            assert cache._bytes == held <= cache.max_bytes
        stats = cache.stats
        assert stats.hits + stats.misses == rounds * threads
        assert stats.packs > 0 and stats.evictions > 0
