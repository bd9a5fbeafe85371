"""Unit tests for the statistics catalog."""

import pytest

from repro.core import (
    BasicGHEstimator,
    GHEstimator,
    ParametricEstimator,
    PHEstimator,
    StatisticsCatalog,
)
from repro.core.catalog import catalog_for
from repro.datasets import make_clustered, make_uniform
from repro.geometry import Rect
from repro.histograms import gh_selectivity
from repro.perf import HistogramCache
from repro.store import ArtifactCatalog


@pytest.fixture
def datasets():
    a = make_uniform(800, seed=30, name="A")
    b = make_clustered(800, seed=31, name="B")
    c = make_uniform(500, seed=32, name="C")
    return a, b, c


class TestRegistration:
    def test_register_and_lookup(self, datasets):
        a, b, _ = datasets
        catalog = StatisticsCatalog()
        catalog.register(a)
        catalog.register(b)
        assert catalog.names == ["A", "B"]
        assert catalog.dataset("A") is a

    def test_unknown_dataset(self):
        with pytest.raises(KeyError, match="not registered"):
            StatisticsCatalog().dataset("nope")

    def test_extent_of_empty_catalog(self):
        with pytest.raises(ValueError):
            StatisticsCatalog().extent

    def test_extent_grows_to_cover_all(self, datasets):
        a, _, _ = datasets
        catalog = StatisticsCatalog()
        catalog.register(a)
        wide = make_uniform(10, seed=1, extent=Rect(-2, -2, 3, 3), name="W")
        catalog.register(wide)
        assert catalog.extent.contains_rect(Rect.unit())
        assert catalog.extent.contains_rect(Rect(-2, -2, 3, 3))


class TestEstimation:
    def test_matches_direct_gh(self, datasets):
        a, b, _ = datasets
        catalog = StatisticsCatalog(GHEstimator(level=5))
        catalog.register(a)
        catalog.register(b)
        assert catalog.estimate("A", "B") == pytest.approx(gh_selectivity(a, b, 5))

    def test_estimate_pairs(self, datasets):
        a, b, _ = datasets
        catalog = StatisticsCatalog(GHEstimator(level=4))
        catalog.register(a)
        catalog.register(b)
        assert catalog.estimate_pairs("A", "B") == pytest.approx(
            catalog.estimate("A", "B") * len(a) * len(b)
        )

    def test_summaries_cached(self, datasets):
        a, b, _ = datasets
        catalog = StatisticsCatalog(GHEstimator(level=4))
        catalog.register(a)
        catalog.register(b)
        first = catalog.summary_for("A")
        assert catalog.summary_for("A") is first

    def test_cache_invalidated_on_extent_growth(self, datasets):
        a, _, _ = datasets
        catalog = StatisticsCatalog(GHEstimator(level=3))
        catalog.register(a)
        before = catalog.summary_for("A")
        wide = make_uniform(10, seed=1, extent=Rect(-2, -2, 3, 3), name="W")
        catalog.register(wide)
        after = catalog.summary_for("A")
        assert after is not before
        assert after.grid.extent != before.grid.extent

    def test_parametric_estimator_works(self, datasets):
        a, b, _ = datasets
        catalog = StatisticsCatalog(ParametricEstimator())
        catalog.register(a)
        catalog.register(b)
        assert catalog.estimate("A", "B") > 0

    def test_default_estimator_is_gh7(self):
        catalog = StatisticsCatalog()
        assert isinstance(catalog.estimator, GHEstimator)
        assert catalog.estimator.level == 7


class TestFreshStatistics:
    """Re-registered data is never answered from its old statistics."""

    def test_reregistered_dataset_is_not_stale(self, datasets):
        a, b, _ = datasets
        catalog = StatisticsCatalog(GHEstimator(level=5))
        catalog.register(a)
        catalog.register(b)
        before = catalog.estimate("A", "B")
        new_a = make_clustered(800, seed=33, name="A")
        catalog.register(new_a)  # same name, same extent, new data
        assert catalog.estimate("A", "B") == gh_selectivity(new_a, b, 5)
        assert catalog.estimate("A", "B") != before

    def test_second_catalog_over_one_store_is_not_stale(self, datasets, tmp_path):
        a, b, _ = datasets
        first = StatisticsCatalog(GHEstimator(level=5), cache=_store_cache(tmp_path))
        first.register(a)
        first.register(b)
        first.estimate("A", "B")
        new_a = make_clustered(800, seed=33, name="A")
        second = StatisticsCatalog(GHEstimator(level=5), cache=_store_cache(tmp_path))
        second.register(new_a)
        second.register(b)
        assert second.estimate("A", "B") == gh_selectivity(new_a, b, 5)


def _store_cache(root) -> HistogramCache:
    return HistogramCache(store=ArtifactCatalog(root))


class TestPersistence:
    def test_histograms_spill_to_disk(self, datasets, tmp_path):
        a, b, _ = datasets
        cache = _store_cache(tmp_path)
        catalog = StatisticsCatalog(GHEstimator(level=3), cache=cache)
        catalog.register(a)
        catalog.register(b)
        catalog.estimate("A", "B")
        assert cache.store.stats.publishes == 2
        assert [entry.kind for entry in cache.store.entries()] == ["gh", "gh"]

    def test_reload_from_disk(self, datasets, tmp_path):
        a, b, _ = datasets
        first = StatisticsCatalog(GHEstimator(level=3), cache=_store_cache(tmp_path))
        first.register(a)
        first.register(b)
        expected = first.estimate("A", "B")

        cache = _store_cache(tmp_path)
        second = StatisticsCatalog(GHEstimator(level=3), cache=cache)
        second.register(a)
        second.register(b)
        assert second.estimate("A", "B") == expected
        assert cache.stats.builds == 0

    def test_ph_persists_too(self, datasets, tmp_path):
        a, b, _ = datasets
        cache = _store_cache(tmp_path)
        catalog = StatisticsCatalog(PHEstimator(level=3), cache=cache)
        catalog.register(a)
        catalog.register(b)
        catalog.estimate("A", "B")
        assert [entry.kind for entry in cache.store.entries()] == ["ph", "ph"]

    def test_basic_gh_persists_too(self, datasets, tmp_path):
        a, b, _ = datasets
        cache = _store_cache(tmp_path)
        catalog = StatisticsCatalog(BasicGHEstimator(level=3), cache=cache)
        catalog.register(a)
        catalog.register(b)
        catalog.estimate("A", "B")
        assert [entry.kind for entry in cache.store.entries()] == ["gh_basic", "gh_basic"]


class TestCatalogFor:
    def test_builds_shared_extent(self, datasets):
        a, b, c = datasets
        catalog = catalog_for([a, b, c])
        assert catalog.names == ["A", "B", "C"]
        assert catalog.estimate("A", "C") >= 0

    def test_empty_list(self):
        catalog = catalog_for([])
        assert catalog.names == []
