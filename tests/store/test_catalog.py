"""The on-disk catalog itself: publish, load, verify, retire.

Everything here runs against real directories (``tmp_path``) — the
catalog's contract is about *files*: atomic appearance, mmap-backed
loads that equal the published arrays bitwise, corruption surfacing as
a counted miss rather than a wrong answer, and LRU eviction ordered by
recency of use.
"""

import json
import os

import numpy as np
import pytest

from repro.datasets import SpatialDataset
from repro.histograms import BasicGHHistogram, GHHistogram, PHHistogram, grid
from repro.histograms.file import histogram_parts
from repro.perf import FlatTreeCache, HistogramCache
from repro.rtree import flat_join_count, flat_load_str
from repro.store import (
    FORMAT_VERSION,
    ArtifactCatalog,
    MANIFEST_NAME,
    hist_entry_name,
    tree_entry_name,
)
from tests.conftest import random_rects


@pytest.fixture
def dataset(rng):
    return SpatialDataset("cat", random_rects(rng, 150))


@pytest.fixture
def catalog(tmp_path):
    return ArtifactCatalog(tmp_path / "store")


def publish_gh(catalog, dataset, level=5):
    key = HistogramCache.key_for(dataset, "gh", level)
    hist = GHHistogram.build(dataset, level)
    assert catalog.put_histogram(key, hist)
    return key, hist


class TestHistogramRoundTrip:
    @pytest.mark.parametrize(
        "scheme,cls",
        [("gh", GHHistogram), ("ph", PHHistogram), ("gh_basic", BasicGHHistogram)],
    )
    def test_load_is_bit_identical(self, catalog, dataset, scheme, cls):
        key = HistogramCache.key_for(dataset, scheme, 4)
        built = cls.build(dataset, 4)
        assert catalog.put_histogram(key, built)
        loaded = catalog.load_histogram(key)
        assert type(loaded) is cls
        scalars_a, stats_a = histogram_parts(built)
        scalars_b, stats_b = histogram_parts(loaded)
        assert scalars_a == scalars_b
        assert np.array_equal(stats_a, stats_b)

    def test_load_is_memory_mapped(self, catalog, dataset):
        key, _ = publish_gh(catalog, dataset)
        loaded = catalog.load_histogram(key)
        assert isinstance(loaded.c.base, np.memmap) or isinstance(
            loaded.c, np.memmap
        )

    def test_miss_returns_none_and_counts(self, catalog, dataset):
        key = HistogramCache.key_for(dataset, "gh", 6)
        assert catalog.load_histogram(key) is None
        assert catalog.stats.misses == 1
        assert catalog.stats.hits == 0

    def test_publish_is_idempotent(self, catalog, dataset):
        key, hist = publish_gh(catalog, dataset)
        assert catalog.put_histogram(key, hist)  # second publish: no-op, True
        assert catalog.stats.publishes == 1
        assert len(catalog.entries()) == 1

    def test_key_mismatch_is_rejected(self, catalog, dataset):
        key = HistogramCache.key_for(dataset, "gh", 5)
        wrong_level = GHHistogram.build(dataset, 4)
        with pytest.raises(ValueError, match="does not match key"):
            catalog.put_histogram(key, wrong_level)


class TestFormatVersion:
    def test_build_block_is_pinned_to_the_format_version(self):
        """GH's accumulation order is block-major, so the block size is
        part of the persisted bits: changing either number needs a new
        ``FORMAT_VERSION``, or older entries load as hits that differ
        from a cold build."""
        assert (FORMAT_VERSION, grid.BUILD_BLOCK) == (5, 16_384)

    def test_version_one_gh_entry_is_rebuilt(self, catalog, dataset):
        """A version-1 entry stacked GH planes c, o, h, v: it must read as
        a miss, and the cache's rebuild must equal a cold build."""
        key, _ = publish_gh(catalog, dataset)
        manifest_path = catalog.root / "objects" / hist_entry_name(key) / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        assert manifest["version"] == FORMAT_VERSION == 5
        manifest["version"] = 1
        manifest_path.write_text(json.dumps(manifest))
        assert catalog.load_histogram(key) is None
        assert catalog.stats.hits == 0
        cache = HistogramCache(store=catalog)
        hist, source = cache.resolve(dataset, "gh", 5)
        assert source == "build"
        cold = GHHistogram.build(dataset, 5)
        assert np.array_equal(hist.planes, cold.planes)
        assert hist.estimate_selectivity(cold) == cold.estimate_selectivity(cold)
        republished = catalog.load_histogram(key)
        assert np.array_equal(republished.planes, cold.planes)


    def test_version_three_gh_entry_is_a_counted_miss_and_rebuilt(self, catalog, dataset):
        """A version-3 entry holds GH planes accumulated in rectangle
        order, which a cold build no longer reproduces bit for bit: it
        must read as a counted miss, and the republished rebuild must be
        the current version and equal a cold build."""
        key, _ = publish_gh(catalog, dataset)
        manifest_path = catalog.root / "objects" / hist_entry_name(key) / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = 3
        manifest_path.write_text(json.dumps(manifest))
        misses = catalog.stats.misses
        assert catalog.load_histogram(key) is None
        assert catalog.stats.misses == misses + 1
        assert catalog.stats.hits == 0
        cache = HistogramCache(store=catalog)
        hist, source = cache.resolve(dataset, "gh", 5)
        assert source == "build"
        assert cache.stats.builds == 1
        cold = GHHistogram.build(dataset, 5)
        assert hist.planes.tobytes() == cold.planes.tobytes()
        assert json.loads(manifest_path.read_text())["version"] == FORMAT_VERSION
        republished = catalog.load_histogram(key)
        assert republished.planes.tobytes() == cold.planes.tobytes()


class TestTreeRoundTrip:
    def test_join_count_identity(self, catalog, rng):
        a, b = random_rects(rng, 120), random_rects(rng, 140)
        key = FlatTreeCache.key_for(a, "str", 16)
        built = flat_load_str(a, max_entries=16)
        assert catalog.put_tree(key, built)
        loaded = catalog.load_tree(key)
        other = flat_load_str(b, max_entries=16)
        assert flat_join_count(loaded, other) == flat_join_count(built, other)
        assert np.array_equal(loaded.entry_coords, built.entry_coords)
        assert np.array_equal(loaded.entry_ids, built.entry_ids)


class TestCorruption:
    def test_torn_payload_reads_as_counted_miss(self, catalog, dataset):
        key, _ = publish_gh(catalog, dataset)
        entry_dir = catalog.root / "objects" / hist_entry_name(key)
        (entry_dir / "stats.npy").write_bytes(b"torn")
        assert catalog.load_histogram(key) is None
        assert catalog.stats.corrupt_detected == 1
        # The writable catalog also discarded the entry on detection.
        assert not entry_dir.exists()

    def test_flipped_bytes_fail_full_verify(self, catalog, dataset):
        key, _ = publish_gh(catalog, dataset)
        name = hist_entry_name(key)
        payload = catalog.root / "objects" / name / "stats.npy"
        raw = bytearray(payload.read_bytes())
        raw[-1] ^= 0xFF  # same size, different content: only checksum sees it
        payload.write_bytes(bytes(raw))
        problems = catalog.verify_entry(name)
        assert problems and any("checksum" in p for p in problems)

    def test_foreign_manifest_key_is_rejected(self, catalog, dataset, rng):
        key, _ = publish_gh(catalog, dataset)
        other = SpatialDataset("other", random_rects(rng, 90))
        other_key = HistogramCache.key_for(other, "gh", 5)
        # Graft this entry's directory under the other key's name.
        src = catalog.root / "objects" / hist_entry_name(key)
        dst = catalog.root / "objects" / hist_entry_name(other_key)
        os.rename(src, dst)
        assert catalog.load_histogram(other_key) is None
        assert catalog.stats.corrupt_detected == 1


class TestRetention:
    def test_invalidate_removes_entry(self, catalog, dataset):
        key, _ = publish_gh(catalog, dataset)
        assert catalog.invalidate(key) is True
        assert catalog.invalidate(key) is False  # already gone
        assert catalog.stats.invalidations == 1
        assert catalog.load_histogram(key) is None

    def test_evict_drops_least_recently_used_first(self, catalog, dataset, rng):
        other = SpatialDataset("fresh", random_rects(rng, 80))
        old_key, _ = publish_gh(catalog, dataset, 5)
        new_key, _ = publish_gh(catalog, other, 5)
        # Make the *first* entry the most recently used.
        old_manifest = catalog.root / "objects" / hist_entry_name(old_key) / MANIFEST_NAME
        new_manifest = catalog.root / "objects" / hist_entry_name(new_key) / MANIFEST_NAME
        past = os.stat(new_manifest).st_mtime - 1000
        os.utime(new_manifest, (past, past))
        assert catalog.load_histogram(old_key) is not None  # touches recency
        removed = catalog.evict(max_bytes=catalog.total_bytes() - 1)
        assert removed == [hist_entry_name(new_key)]
        assert catalog.load_histogram(old_key) is not None

    def test_evict_to_zero_clears_everything(self, catalog, dataset):
        publish_gh(catalog, dataset, 5)
        publish_gh(catalog, dataset, 6)
        removed = catalog.evict(max_bytes=0)
        assert len(removed) == 2
        assert catalog.total_bytes() == 0
        assert catalog.stats.evictions == 2


class TestReadOnly:
    def test_read_only_never_writes(self, tmp_path, dataset):
        writer = ArtifactCatalog(tmp_path / "store")
        key, hist = publish_gh(writer, dataset)
        reader = ArtifactCatalog(tmp_path / "store", read_only=True)
        assert reader.load_histogram(key) is not None
        assert reader.put_histogram(key, hist) is False
        with pytest.raises(ValueError, match="read-only"):
            reader.invalidate(key)

    def test_read_only_on_missing_root_reads_as_empty(self, tmp_path, dataset):
        reader = ArtifactCatalog(tmp_path / "never-created", read_only=True)
        key = HistogramCache.key_for(dataset, "gh", 5)
        assert reader.load_histogram(key) is None
        assert reader.entries() == []


class TestManifest:
    def test_manifest_records_key_params_and_source(self, catalog, dataset):
        key = HistogramCache.key_for(dataset, "gh", 5)
        hist = GHHistogram.build(dataset, 5)
        catalog.put_histogram(key, hist, source={"dataset": "cat", "scale": 2.0})
        manifest_path = (
            catalog.root / "objects" / hist_entry_name(key) / MANIFEST_NAME
        )
        manifest = json.loads(manifest_path.read_text())
        assert manifest["kind"] == "gh"
        assert manifest["key"]["fingerprint"] == key.fingerprint
        assert manifest["source"] == {"dataset": "cat", "scale": 2.0}
        assert "stats" in manifest["arrays"]

    def test_entries_report_names_kinds_and_bytes(self, catalog, dataset, rng):
        publish_gh(catalog, dataset)
        rects = random_rects(rng, 60)
        tree_key = FlatTreeCache.key_for(rects, "str", 8)
        catalog.put_tree(tree_key, flat_load_str(rects, max_entries=8))
        entries = {e.name: e for e in catalog.entries()}
        assert set(entries) == {
            hist_entry_name(HistogramCache.key_for(dataset, "gh", 5)),
            tree_entry_name(tree_key),
        }
        assert all(e.nbytes > 0 for e in entries.values())
        assert catalog.total_bytes() == sum(e.nbytes for e in entries.values())
