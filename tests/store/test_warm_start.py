"""Warm starts from the artifact catalog: zero-copy opens and sweeps.

Over the eight registry datasets at cardinality 2000, GH level 5:

* a catalog open returns read-only memory-mapped stat planes and builds
  nothing, and it does less work than a cold build of the same
  histogram on every dataset: the open reads no rectangle and maps
  exactly the file's ``size_bytes``, while the build reads all N
  rectangles and writes those bytes (counted, not timed, so the gate
  holds on a loaded host; bit identity checked first);
* a first-touch :meth:`HistogramCache.resolve` sweep through a fresh
  cache sources every dataset from a prewarmed read-only catalog and
  builds nothing, while the same sweep without a store never touches
  one.
"""

import numpy as np
import pytest

import repro.store.catalog as catalog_mod
from repro.datasets.registry import PAPER_CARDINALITIES, make_paper_dataset
from repro.histograms import GHHistogram, Grid
from repro.histograms.file import STAT_PLANES, histogram_parts
from repro.perf import HistogramCache
from repro.store import ArtifactCatalog
from tests.conftest import count_gh_builds

LEVEL = 5
CARDINALITY = 2000


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


@pytest.fixture
def work(monkeypatch) -> dict[str, int]:
    """Rectangles read (every build reads its input through one
    ``Grid.cell_ranges`` call) and payload bytes mapped by the catalog."""
    counts = {"rects": 0, "mapped_bytes": 0}
    cell_ranges = Grid.cell_ranges
    map_payload = catalog_mod._map_payload

    def counting_cell_ranges(self, rects):
        counts["rects"] += len(rects)
        return cell_ranges(self, rects)

    def counting_map_payload(path, spec):
        payload = map_payload(path, spec)
        counts["mapped_bytes"] += payload.nbytes
        return payload

    monkeypatch.setattr(Grid, "cell_ranges", counting_cell_ranges)
    monkeypatch.setattr(catalog_mod, "_map_payload", counting_map_payload)
    return counts


def test_open_beats_a_cold_build_on_every_dataset(datasets, root, work):
    catalog = ArtifactCatalog(root, read_only=True)
    for name, dataset in datasets.items():
        key = HistogramCache.key_for(dataset, "gh", LEVEL)
        work.update(rects=0, mapped_bytes=0)
        built = GHHistogram.build(dataset, LEVEL)
        build_work = dict(work)
        work.update(rects=0, mapped_bytes=0)
        loaded = catalog.load_histogram(key)
        open_work = dict(work)
        scalars_a, stats_a = histogram_parts(built)
        scalars_b, stats_b = histogram_parts(loaded)
        assert scalars_a == scalars_b and stats_a.tobytes() == stats_b.tobytes(), name
        size = built.size_bytes
        assert build_work == {"rects": len(dataset), "mapped_bytes": 0}, name
        assert open_work == {"rects": 0, "mapped_bytes": size}, name
        # In bytes touched: the build reads N rectangles' four float64
        # coordinates and writes the planes; the open maps the planes.
        assert open_work["mapped_bytes"] < 32 * build_work["rects"] + size, name


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
