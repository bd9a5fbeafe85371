"""2×2 GH pooling ≈ fresh builds, all levels.

The GH pyramid (:mod:`repro.histograms.pyramid`) rests on one claim:
folding a level-``h`` GH histogram down to any coarser level produces
the same statistics as building at that level directly, up to float
summation order.  This file proves it to 1e-9 relative tolerance across
every level and across the distribution shapes that stress different
parts of the build — uniform, clustered, degenerate (zero-area points),
and empty data.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import SpatialDataset, make_clustered, make_points_like, make_uniform
from repro.geometry import Rect, RectArray
from repro.histograms import GHHistogram, downsample_gh

FINEST = 6
RTOL = 1e-9
ATOL = 1e-12


def _dataset(kind: str) -> SpatialDataset:
    if kind == "uniform":
        return make_uniform(1500, seed=7)
    if kind == "clustered":
        return make_clustered(1500, seed=11)
    if kind == "points":
        return make_points_like(1500, seed=13)
    if kind == "empty":
        return SpatialDataset("empty", RectArray.empty(), Rect.unit())
    raise AssertionError(kind)


def _derive(finest: GHHistogram, level: int) -> GHHistogram:
    hist = finest
    for _ in range(finest.grid.level - level):
        hist = downsample_gh(hist)
    return hist


def _assert_equivalent(derived: GHHistogram, direct: GHHistogram) -> None:
    assert derived.grid == direct.grid
    assert derived.count == direct.count
    for name in ("c", "o", "h", "v"):
        got, want = getattr(derived, name), getattr(direct, name)
        assert np.allclose(got, want, rtol=RTOL, atol=ATOL), name


@pytest.mark.parametrize("kind", ["uniform", "clustered", "points", "empty"])
@pytest.mark.parametrize("level", list(range(FINEST)))
def test_pooled_equals_fresh_build(kind, level):
    dataset = _dataset(kind)
    finest = GHHistogram.build(dataset, FINEST)
    _assert_equivalent(_derive(finest, level), GHHistogram.build(dataset, level))


def test_pooled_estimates_match(rng):
    """End to end: selectivities from derived histograms equal rebuilt ones."""
    ds1 = make_uniform(1000, seed=3)
    ds2 = make_clustered(1000, seed=5)
    f1 = GHHistogram.build(ds1, FINEST)
    f2 = GHHistogram.build(ds2, FINEST)
    for level in range(FINEST):
        derived = _derive(f1, level).estimate_selectivity(_derive(f2, level))
        direct = GHHistogram.build(ds1, level).estimate_selectivity(
            GHHistogram.build(ds2, level)
        )
        assert derived == pytest.approx(direct, rel=RTOL)
