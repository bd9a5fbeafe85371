"""Unit tests for GH pyramids (exact multi-resolution histograms)."""

import numpy as np
import pytest

from repro.datasets import SpatialDataset, make_clustered, make_points_like
from repro.geometry import Rect
from repro.histograms import GHHistogram, GHPyramid, downsample_gh
from tests.conftest import random_rects

#: Pooled O/H/V sum the same terms as a direct build in another order.
RTOL = 1e-13


@pytest.fixture
def dataset(rng):
    return SpatialDataset("d", random_rects(rng, 500, max_side=0.2))


class TestDownsample:
    @pytest.mark.parametrize("level", [1, 3, 5])
    def test_exact_against_direct_build(self, dataset, level):
        """The heart of the pyramid: downsampling equals building at the
        coarser level — C exactly, O/H/V up to float summation order."""
        fine = GHHistogram.build(dataset, level)
        coarse = downsample_gh(fine)
        direct = GHHistogram.build(dataset, level - 1)
        assert coarse.grid == direct.grid
        assert coarse.count == direct.count
        assert np.array_equal(coarse.c, direct.c)
        np.testing.assert_allclose(coarse.o, direct.o, rtol=RTOL)
        np.testing.assert_allclose(coarse.h, direct.h, rtol=RTOL)
        np.testing.assert_allclose(coarse.v, direct.v, rtol=RTOL)

    def test_exact_for_point_data(self):
        ds = make_points_like(2000, seed=160)
        fine = GHHistogram.build(ds, 4)
        assert np.array_equal(downsample_gh(fine).c, GHHistogram.build(ds, 3).c)

    def test_exact_on_anisotropic_extent(self, rng):
        extent = Rect(-10, 5, 50, 11)
        ds = SpatialDataset("w", random_rects(rng, 300, extent=extent), extent)
        fine = GHHistogram.build(ds, 4)
        direct = GHHistogram.build(ds, 3)
        coarse = downsample_gh(fine)
        np.testing.assert_allclose(coarse.o, direct.o, rtol=RTOL)
        np.testing.assert_allclose(coarse.h, direct.h, rtol=RTOL)

    def test_level_zero_rejected(self, dataset):
        with pytest.raises(ValueError):
            downsample_gh(GHHistogram.build(dataset, 0))

    def test_repeated_downsampling_reaches_level0(self, dataset):
        hist = GHHistogram.build(dataset, 4)
        for _ in range(4):
            hist = downsample_gh(hist)
        direct = GHHistogram.build(dataset, 0)
        assert np.array_equal(hist.c, direct.c)
        np.testing.assert_allclose(hist.o, direct.o, rtol=RTOL)


class TestGHPyramid:
    def test_every_level_matches_direct_build(self, dataset):
        pyramid = GHPyramid(dataset, 5)
        for level in range(6):
            direct = GHHistogram.build(dataset, level)
            assert np.array_equal(pyramid[level].c, direct.c)
            np.testing.assert_allclose(pyramid[level].o, direct.o, rtol=RTOL)

    def test_estimates_match_direct(self, dataset, rng):
        other = SpatialDataset("o", random_rects(rng, 400))
        p1 = GHPyramid(dataset, 5)
        p2 = GHPyramid(other, 5)
        for level in (0, 2, 4):
            direct = GHHistogram.build(dataset, level).estimate_selectivity(
                GHHistogram.build(other, level)
            )
            assert p1.estimate_selectivity(p2, level) == pytest.approx(direct)

    def test_lazy_caching(self, dataset):
        pyramid = GHPyramid(dataset, 6)
        assert set(pyramid._levels) == {6}
        pyramid[3]
        assert set(pyramid._levels) == {3, 4, 5, 6}
        first = pyramid[3]
        assert pyramid[3] is first

    def test_out_of_range_level(self, dataset):
        pyramid = GHPyramid(dataset, 4)
        with pytest.raises(IndexError):
            pyramid[5]
        with pytest.raises(IndexError):
            pyramid[-1]

    def test_count_property(self, dataset):
        assert GHPyramid(dataset, 3).count == len(dataset)

    def test_pyramid_much_cheaper_than_rebuilds(self):
        """One fine build + downsampling beats building every level."""
        import time

        ds = make_clustered(30_000, seed=161)

        def time_pyramid() -> float:
            t0 = time.perf_counter()
            pyramid = GHPyramid(ds, 8)
            for level in range(9):
                pyramid[level]
            return time.perf_counter() - t0

        def time_rebuilds() -> float:
            t0 = time.perf_counter()
            for level in range(9):
                GHHistogram.build(ds, level)
            return time.perf_counter() - t0

        # Best-of-two each, interleaved, to wash out cache warm-up noise.
        pyramid_seconds = min(time_pyramid(), time_pyramid())
        rebuild_seconds = min(time_rebuilds(), time_rebuilds())
        assert pyramid_seconds < rebuild_seconds
