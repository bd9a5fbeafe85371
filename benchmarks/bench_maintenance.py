"""Maintenance benchmark: incremental GH updates vs from-scratch rebuild.

The operational payoff of GH's additivity: applying a batch of
inserts/deletes costs O(batch), independent of the dataset size, while a
rebuild costs O(N).  This bench measures both at increasing dataset
sizes (the gap widens with N).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import SpatialDataset, make_uniform
from repro.histograms import GHHistogram, apply_updates

LEVEL = 7
BATCH = 500


@pytest.fixture(scope="module")
def update_case(all_pairs):
    ds = all_pairs["TS_TCB"][1]  # TCB, the largest non-CAR dataset
    hist = GHHistogram.build(ds, LEVEL)
    rng = np.random.default_rng(42)
    added = make_uniform(BATCH, seed=43, mean_width=0.005, mean_height=0.005).rects
    removed_idx = rng.choice(len(ds), size=BATCH, replace=False)
    removed = ds.rects[removed_idx]
    keep = np.setdiff1d(np.arange(len(ds)), removed_idx)
    new_rects = type(ds.rects).concatenate([ds.rects[keep], added])
    new_ds = SpatialDataset("updated", new_rects, ds.extent)
    return hist, added, removed, new_ds


def test_incremental_update(benchmark, update_case):
    hist, added, removed, _ = update_case
    benchmark.group = "maintenance"
    updated = benchmark(lambda: apply_updates(hist, added=added, removed=removed))
    assert updated.count == hist.count  # same-size swap


def test_full_rebuild(benchmark, update_case):
    _, __, ___, new_ds = update_case
    benchmark.group = "maintenance"
    rebuilt = benchmark(lambda: GHHistogram.build(new_ds, LEVEL))
    assert rebuilt.count == len(new_ds)


def test_update_equals_rebuild(update_case):
    hist, added, removed, new_ds = update_case
    updated = apply_updates(hist, added=added, removed=removed)
    rebuilt = GHHistogram.build(new_ds, LEVEL)
    assert updated.count == rebuilt.count
    assert np.allclose(updated.c, rebuilt.c)
    assert np.allclose(updated.o, rebuilt.o)
