"""The catalog as an L2 tier: caches and the server.

These are the warm-start integration tests: a catalog populated by one
process (or one cache) must satisfy the next one without touching the
raw data, and every layer must *say so* — ``resolve`` sources, the
store's counters, the response's ``via`` — so a warm answer is
distinguishable from a rebuild in any stats snapshot.
"""

import asyncio

import numpy as np
import pytest

from repro.datasets import SpatialDataset
from repro.histograms import GHHistogram
from repro.histograms.file import histogram_parts
from repro.perf import FlatTreeCache, HistogramCache
from repro.rtree import flat_join_count, flat_load_str
from repro.runtime import Deadline, runtime_scope
from repro.serve import EstimationServer, ServeRequest
from repro.store import ArtifactCatalog
from tests.conftest import random_rects


@pytest.fixture
def store(tmp_path):
    return ArtifactCatalog(tmp_path / "store")


@pytest.fixture
def dataset(rng):
    return SpatialDataset("tier", random_rects(rng, 180))


class TestHistogramCacheTier:
    def test_resolution_order_build_then_store_then_l1(self, store, dataset):
        cache = HistogramCache(store=store)
        _, source = cache.resolve(dataset, "gh", 5)
        assert source == "build"
        assert store.stats.publishes == 1
        _, source = cache.resolve(dataset, "gh", 5)
        assert source == "l1"
        # A cold cache over the same catalog answers from disk.
        warm = HistogramCache(store=store)
        hist, source = warm.resolve(dataset, "gh", 5)
        assert source == "store"
        assert warm.stats.builds == 0
        fresh = GHHistogram.build(dataset, 5)
        _, stats_a = histogram_parts(fresh)
        _, stats_b = histogram_parts(hist)
        assert np.array_equal(stats_a, stats_b)

    def test_stored_finer_gh_does_not_answer_a_coarser_miss(self, store, dataset):
        HistogramCache(store=store).resolve(dataset, "gh", 5)
        warm = HistogramCache(store=store)
        hist, source = warm.resolve(dataset, "gh", 3)
        assert source == "build"
        assert warm.stats.builds == 1
        _, stats_a = histogram_parts(GHHistogram.build(dataset, 3))
        _, stats_b = histogram_parts(hist)
        assert np.array_equal(stats_a, stats_b)

    def test_no_store_behaves_exactly_as_before(self, dataset):
        cache = HistogramCache()
        _, source = cache.resolve(dataset, "gh", 5)
        assert source == "build"
        _, source = cache.resolve(dataset, "gh", 5)
        assert source == "l1"
        _, source = cache.resolve(dataset, "gh", 4)
        assert source == "build"

    def test_deadline_scope_skips_the_publish(self, store, dataset):
        cache = HistogramCache(store=store)
        with runtime_scope(deadline=Deadline(60.0)):
            _, source = cache.resolve(dataset, "gh", 5)
        assert source == "build"
        assert store.stats.publishes == 0  # fsync is not deadline money

    def test_read_only_store_serves_but_never_publishes(self, tmp_path, dataset):
        writer = ArtifactCatalog(tmp_path / "store")
        HistogramCache(store=writer).resolve(dataset, "gh", 5)
        reader = ArtifactCatalog(tmp_path / "store", read_only=True)
        cache = HistogramCache(store=reader)
        _, source = cache.resolve(dataset, "gh", 5)
        assert source == "store"
        _, source = cache.resolve(dataset, "ph", 4)
        assert source == "build"
        assert reader.stats.publishes == 0


class TestFlatTreeCacheTier:
    def test_warm_tree_load_preserves_join_counts(self, store, rng):
        a, b = random_rects(rng, 150), random_rects(rng, 170)
        cold = FlatTreeCache(store=store)
        tree_a, source = cold.resolve(a, "str")
        assert source == "build"
        warm = FlatTreeCache(store=store)
        loaded_a, source = warm.resolve(a, "str")
        assert source == "store"
        assert warm.stats.builds == 0
        tree_b = flat_load_str(b)
        assert flat_join_count(loaded_a, tree_b) == flat_join_count(tree_a, tree_b)
        _, source = warm.resolve(a, "str")
        assert source == "l1"


class TestServeProvenance:
    def _serve(self, server, request):
        async def go():
            async with server:
                return await server.submit(request)

        return asyncio.run(go())

    @pytest.fixture
    def datasets(self, rng):
        return {
            name: SpatialDataset(name, random_rects(rng, 200))
            for name in ("roads", "rivers")
        }

    def _force_cached(self, datasets, store):
        def broken_runner(queries, deadline_s):
            raise OSError("estimator tier is down")

        return EstimationServer(datasets, batch_runner=broken_runner, store=store)

    def test_cached_rung_records_store_when_warm(self, tmp_path, datasets):
        root = tmp_path / "store"
        writer = ArtifactCatalog(root)
        # Prewarm the *coarsened* level the ladder will actually ask for:
        # GH(3), the second rung of default_fallback_chain(GH(6)).
        for ds in datasets.values():
            writer.put_histogram(
                HistogramCache.key_for(ds, "gh", 3), GHHistogram.build(ds, 3)
            )
        server = self._force_cached(datasets, ArtifactCatalog(root))
        response = self._serve(server, ServeRequest("roads", "rivers", level=6))
        assert response.provenance.rung == "cached-coarse"
        assert response.provenance.via == "store"
        stats = server.stats()
        assert stats["store"]["hits"] == 2

    def test_cached_rung_records_build_when_cold(self, tmp_path, datasets):
        server = self._force_cached(datasets, ArtifactCatalog(tmp_path / "store"))
        response = self._serve(server, ServeRequest("roads", "rivers", level=6))
        assert response.provenance.rung == "cached-coarse"
        assert response.provenance.via == "build"

    def test_storeless_server_keeps_the_local_label(self, datasets):
        server = self._force_cached(datasets, None)
        response = self._serve(server, ServeRequest("roads", "rivers", level=6))
        assert response.provenance.rung == "cached-coarse"
        assert response.provenance.via in ("local", "build")
        assert "store" not in server.stats()
