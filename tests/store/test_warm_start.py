"""Warm starts from the artifact catalog: zero-copy opens and sweeps.

Over the eight registry datasets at cardinality 2000, GH level 5:

* a catalog open returns read-only memory-mapped stat planes and builds
  nothing, and it is faster than a cold build of the same histogram on
  every dataset (interleaved min-over-repeats timings, bit identity
  checked first);
* a first-touch :meth:`HistogramCache.resolve` sweep through a fresh
  cache sources every dataset from a prewarmed read-only catalog and
  builds nothing, while the same sweep without a store never touches
  one.
"""

import time

import numpy as np
import pytest

from repro.datasets.registry import PAPER_CARDINALITIES, make_paper_dataset
from repro.histograms import GHHistogram
from repro.histograms.file import STAT_PLANES, histogram_parts
from repro.perf import HistogramCache
from repro.store import ArtifactCatalog
from tests.conftest import count_gh_builds

LEVEL = 5
CARDINALITY = 2000
REPEATS = 30


@pytest.fixture(scope="module")
def datasets():
    return {
        name: make_paper_dataset(name, scale=PAPER_CARDINALITIES[name] / CARDINALITY)
        for name in sorted(PAPER_CARDINALITIES)
    }


@pytest.fixture(scope="module")
def root(datasets, tmp_path_factory):
    """A catalog prewarmed with every dataset's GH histogram."""
    path = tmp_path_factory.mktemp("warm_start") / "catalog"
    catalog = ArtifactCatalog(path)
    for dataset in datasets.values():
        key = HistogramCache.key_for(dataset, "gh", LEVEL)
        assert catalog.put_histogram(key, GHHistogram.build(dataset, LEVEL))
    return path


def _is_read_only_mapping(array):
    if array.flags.writeable:
        return False
    while array is not None:
        if isinstance(array, np.memmap):
            return True
        array = array.base
    return False


def test_open_returns_read_only_memmaps_and_builds_nothing(datasets, root, monkeypatch):
    catalog = ArtifactCatalog(root, read_only=True)
    calls = count_gh_builds(monkeypatch)
    for dataset in datasets.values():
        loaded = catalog.load_histogram(HistogramCache.key_for(dataset, "gh", LEVEL))
        for plane in STAT_PLANES["gh"]:
            assert _is_read_only_mapping(getattr(loaded, plane)), plane
    assert calls == []


def test_open_beats_a_cold_build_on_every_dataset(datasets, root):
    catalog = ArtifactCatalog(root, read_only=True)
    speedups = {}
    for name, dataset in datasets.items():
        key = HistogramCache.key_for(dataset, "gh", LEVEL)
        built = GHHistogram.build(dataset, LEVEL)
        loaded = catalog.load_histogram(key)
        scalars_a, stats_a = histogram_parts(built)
        scalars_b, stats_b = histogram_parts(loaded)
        assert scalars_a == scalars_b and np.array_equal(stats_a, stats_b), name
        # Interleaved, so machine-speed drift hits both sides alike.
        cold = warm = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            GHHistogram.build(dataset, LEVEL)
            cold = min(cold, time.perf_counter() - start)
            start = time.perf_counter()
            catalog.load_histogram(key)
            warm = min(warm, time.perf_counter() - start)
        speedups[name] = cold / warm
    assert min(speedups.values()) > 1.0, speedups


def _sweep(datasets, store):
    cache = HistogramCache(store=store)
    sources = [cache.resolve(dataset, "gh", LEVEL)[1] for dataset in datasets.values()]
    return sources, cache.stats.builds


def test_warm_sweep_loads_every_dataset_and_builds_nothing(datasets, root):
    sources, builds = _sweep(datasets, ArtifactCatalog(root, read_only=True))
    assert sources == ["store"] * len(datasets)
    assert builds == 0


def test_cold_sweep_never_touches_a_store(datasets):
    sources, builds = _sweep(datasets, None)
    assert sources == ["build"] * len(datasets)
    assert builds == len(datasets)
