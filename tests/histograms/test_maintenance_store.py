"""Catalog coherence of incremental maintenance (ISSUE 7, satellite).

A mutated dataset has a new fingerprint: the old artifact must leave
the catalog (or ``verify`` chases ghosts) and the maintained result may
be republished under the *new* dataset's key.  These are regression
tests for the ``store=`` hooks on ``apply_updates``/``merge_histograms``.
"""

import numpy as np
import pytest

from repro.datasets import SpatialDataset
from repro.geometry import Rect, RectArray
from repro.histograms import GHHistogram
from repro.histograms.file import histogram_parts
from repro.histograms.maintenance import apply_updates, merge_histograms
from repro.perf import HistogramCache
from repro.perf.fingerprint import peek_fingerprint
from repro.store import ArtifactCatalog
from tests.conftest import random_rects


@pytest.fixture
def store(tmp_path):
    return ArtifactCatalog(tmp_path / "store")


def concat(a: RectArray, b: RectArray) -> RectArray:
    return RectArray(
        np.concatenate([a.xmin, b.xmin]),
        np.concatenate([a.ymin, b.ymin]),
        np.concatenate([a.xmax, b.xmax]),
        np.concatenate([a.ymax, b.ymax]),
    )


class TestApplyUpdates:
    def test_stale_key_leaves_and_new_key_arrives(self, store, rng):
        base = random_rects(rng, 150)
        extra = random_rects(rng, 30)
        old_ds = SpatialDataset("t", base)
        old_key = HistogramCache.key_for(old_ds, "gh", 5)
        hist = GHHistogram.build(old_ds, 5)
        store.put_histogram(old_key, hist)

        new_ds = SpatialDataset("t", concat(base, extra), old_ds.extent)
        new_key = HistogramCache.key_for(new_ds, "gh", 5, old_ds.extent)
        updated = apply_updates(
            hist, added=extra, store=store,
            stale_key=old_key, republish_key=new_key,
        )
        assert store.load_histogram(old_key) is None  # stale entry is gone
        assert store.stats.invalidations == 1
        republished = store.load_histogram(new_key)
        assert republished is not None
        _, stats_a = histogram_parts(updated)
        _, stats_b = histogram_parts(republished)
        assert np.array_equal(stats_a, stats_b)

    def test_keys_without_a_store_are_an_error(self, rng):
        ds = SpatialDataset("t", random_rects(rng, 50))
        key = HistogramCache.key_for(ds, "gh", 4)
        hist = GHHistogram.build(ds, 4)
        with pytest.raises(ValueError, match="need a store"):
            apply_updates(hist, added=random_rects(rng, 5), stale_key=key)

    def test_storeless_call_is_unchanged(self, rng):
        ds = SpatialDataset("t", random_rects(rng, 50))
        hist = GHHistogram.build(ds, 4)
        extra = random_rects(rng, 10)
        with_store_args = apply_updates(hist, added=extra)
        assert with_store_args.count == hist.count + 10


def move_in_place(ds: SpatialDataset, idx: np.ndarray, dx: float) -> tuple[RectArray, RectArray]:
    """Shift rows ``idx`` of ``ds`` right by ``dx`` in place; return the
    (removed, added) rectangles the maintenance call needs."""
    rects = ds.rects
    removed = rects[idx]
    added = RectArray(removed.xmin + dx, removed.ymin, removed.xmax + dx, removed.ymax)
    rects.xmin[idx] = added.xmin
    rects.xmax[idx] = added.xmax
    return removed, added


class TestWarmIdentity:
    """``dataset=`` plus ``republish_key=`` leaves the edited dataset's
    fingerprint memoized; a key that does not name it is refused."""

    def seeded(self, store, rng):
        """A dataset with room to move right, its key, and its stored GH."""
        rects = random_rects(rng, 120, extent=Rect(0.0, 0.0, 0.9, 1.0))
        ds = SpatialDataset("t", rects, Rect.unit())
        key = HistogramCache.key_for(ds, "gh", 4)
        hist = GHHistogram.build(ds, 4)
        store.put_histogram(key, hist)
        return ds, key, hist

    def test_republish_leaves_the_key_digest_memoized(self, store, rng):
        ds, key, hist = self.seeded(store, rng)
        removed, added = move_in_place(ds, np.arange(10), 0.01)
        ds.mark_mutated()
        new_key = HistogramCache.key_for(ds, "gh", 4)
        apply_updates(
            hist, added=added, removed=removed, store=store,
            stale_key=key, republish_key=new_key, dataset=ds,
        )
        assert peek_fingerprint(ds) == new_key.fingerprint
        assert store.load_histogram(new_key) is not None

    def test_a_maintained_write_folds_the_dataset_once(self, store, rng, monkeypatch):
        """The caller bumps and mints the key (one fold); maintenance
        finds that digest memoized and neither bumps nor folds again."""
        import repro.perf.fingerprint as fingerprint_mod

        folds = []
        fold = fingerprint_mod.dataset_fingerprint_uncached
        monkeypatch.setattr(
            fingerprint_mod,
            "dataset_fingerprint_uncached",
            lambda dataset: folds.append(dataset.name) or fold(dataset),
        )
        ds, key, hist = self.seeded(store, rng)
        for write in range(3):
            folds.clear()
            removed, added = move_in_place(ds, np.arange(10), 0.01)
            ds.mark_mutated()
            version = ds.token.version
            new_key = HistogramCache.key_for(ds, "gh", 4)
            hist = apply_updates(
                hist, added=added, removed=removed, store=store,
                stale_key=key, republish_key=new_key, dataset=ds,
            )
            assert folds == ["t"], write
            assert ds.token.version == version
            assert peek_fingerprint(ds) == new_key.fingerprint
            assert store.load_histogram(new_key) is not None
            assert store.load_histogram(key) is None
            key = new_key

    def test_dataset_alone_leaves_the_fingerprint_cold(self, store, rng):
        ds, _key, hist = self.seeded(store, rng)
        removed, added = move_in_place(ds, np.arange(10), 0.01)
        apply_updates(hist, added=added, removed=removed, dataset=ds)
        assert peek_fingerprint(ds) is None

    def test_republish_key_of_another_dataset_is_refused(self, store, rng):
        ds, key, hist = self.seeded(store, rng)
        other = SpatialDataset("other", random_rects(rng, 60), ds.extent)
        wrong_key = HistogramCache.key_for(other, "gh", 4)
        removed, added = move_in_place(ds, np.arange(10), 0.01)
        ds.mark_mutated()
        before = ([e.name for e in store.entries()], store.stats.snapshot())
        with pytest.raises(ValueError, match="does not name dataset 't'"):
            apply_updates(
                hist, added=added, removed=removed, store=store,
                stale_key=key, republish_key=wrong_key, dataset=ds,
            )
        assert ([e.name for e in store.entries()], store.stats.snapshot()) == before
        assert store.load_histogram(wrong_key) is None  # nothing published
        assert store.load_histogram(key) is not None  # nothing invalidated

    def test_a_key_minted_before_the_bump_is_refused(self, store, rng):
        """Minting the key without bumping first returns the memoized
        pre-edit digest, which names the old arrays."""
        ds, key, hist = self.seeded(store, rng)
        removed, added = move_in_place(ds, np.arange(10), 0.01)
        stale_mint = HistogramCache.key_for(ds, "gh", 4)
        assert stale_mint == key
        with pytest.raises(ValueError, match="does not name"):
            apply_updates(
                hist, added=added, removed=removed, store=store,
                stale_key=key, republish_key=stale_mint, dataset=ds,
            )
        assert store.load_histogram(key) is not None


class TestMergeHistograms:
    def test_partition_keys_retire_into_the_union_key(self, store, rng):
        left, right = random_rects(rng, 80), random_rects(rng, 90)
        union = concat(left, right)
        union_ds = SpatialDataset("u", union)
        extent = union_ds.extent
        parts = [SpatialDataset("u", r, extent) for r in (left, right)]
        keys = [HistogramCache.key_for(ds, "gh", 4, extent) for ds in parts]
        hists = [GHHistogram.build(ds, 4, extent=extent) for ds in parts]
        for key, hist in zip(keys, hists):
            store.put_histogram(key, hist)

        union_key = HistogramCache.key_for(union_ds, "gh", 4, extent)
        merged = merge_histograms(
            hists[0], hists[1], store=store,
            stale_keys=tuple(keys), republish_key=union_key,
        )
        assert all(store.load_histogram(k) is None for k in keys)
        assert store.stats.invalidations == 2
        republished = store.load_histogram(union_key)
        _, stats_a = histogram_parts(merged)
        _, stats_b = histogram_parts(republished)
        assert np.array_equal(stats_a, stats_b)
        # The republished artifact equals a from-scratch union build.
        fresh = GHHistogram.build(union_ds, 4, extent=extent)
        _, stats_c = histogram_parts(fresh)
        assert np.allclose(stats_b, stats_c)
