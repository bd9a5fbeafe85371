"""Unit tests for the Parametric Histogram (PH) scheme."""

import numpy as np
import pytest

from repro.datasets import SpatialDataset, make_clustered, make_uniform
from repro.geometry import Rect, RectArray
from repro.histograms import PHHistogram, parametric_selectivity, ph_selectivity
from repro.join import actual_selectivity
from tests.conftest import random_rects


@pytest.fixture
def uniform_pair():
    a = make_uniform(3000, seed=1, mean_width=0.01, mean_height=0.01)
    b = make_uniform(3000, seed=2, mean_width=0.01, mean_height=0.01)
    return a, b


class TestBuild:
    def test_level0_reduces_to_global_parameters(self, rng):
        """At h = 0 the single cell holds the whole-dataset Aref–Samet
        parameters — the paper's 'PH at level 0 is the prior parametric
        model' statement."""
        rects = random_rects(rng, 500)
        ds = SpatialDataset("d", rects)
        hist = PHHistogram.build(ds, 0)
        summary = ds.summary()
        assert hist.num[0] == 500
        assert hist.cov[0] == pytest.approx(summary.coverage)
        assert hist.xavg[0] == pytest.approx(summary.avg_width)
        assert hist.yavg[0] == pytest.approx(summary.avg_height)
        # The stored planes are the sums behind those averages, in cell units.
        assert hist.xsum[0] == pytest.approx(rects.widths().sum() / hist.grid.cell_width)
        assert hist.ysum[0] == pytest.approx(rects.heights().sum() / hist.grid.cell_height)
        assert hist.num_i[0] == 0  # nothing can cross the only cell

    def test_cont_isect_partition(self, rng):
        """Every rectangle is counted either as contained (once) or as
        intersecting (once per overlapped cell)."""
        rects = random_rects(rng, 400, max_side=0.2)
        ds = SpatialDataset("d", rects)
        hist = PHHistogram.build(ds, 3)
        grid = hist.grid
        contained = grid.contained_mask(rects)
        assert hist.num.sum() == contained.sum()
        spans = grid.span_counts(rects[~contained])
        assert hist.num_i.sum() == spans.sum()

    def test_avg_span_definition(self, rng):
        rects = random_rects(rng, 300, max_side=0.3)
        ds = SpatialDataset("d", rects)
        hist = PHHistogram.build(ds, 3)
        grid = hist.grid
        spanning = rects[~grid.contained_mask(rects)]
        if len(spanning):
            assert hist.avg_span == pytest.approx(
                float(grid.span_counts(spanning).mean())
            )

    def test_avg_span_defaults_to_one(self):
        # All rects inside single cells -> no spanning -> AvgSpan 1.
        rects = RectArray.from_rects([Rect(0.1, 0.1, 0.2, 0.2)])
        hist = PHHistogram.build(SpatialDataset("d", rects), 1)
        assert hist.avg_span == 1.0

    def test_coverage_conservation(self, rng):
        """Summed cell coverages times cell area = total data area."""
        rects = random_rects(rng, 300, max_side=0.3)
        hist = PHHistogram.build(SpatialDataset("d", rects), 4)
        recovered = (hist.cov + hist.cov_i).sum() * hist.grid.cell_area
        assert recovered == pytest.approx(rects.total_area())

    def test_empty_dataset(self):
        hist = PHHistogram.build(SpatialDataset("e", RectArray.empty()), 2)
        assert hist.count == 0
        assert hist.num.sum() == 0
        assert hist.avg_span == 1.0

    def test_explicit_extent_override(self, rng):
        rects = random_rects(rng, 100)
        ds = SpatialDataset("d", rects)
        hist = PHHistogram.build(ds, 2, extent=Rect(-1, -1, 2, 2))
        assert hist.grid.extent == Rect(-1, -1, 2, 2)

    def test_cell_arrays_names(self, rng):
        hist = PHHistogram.build(SpatialDataset("d", random_rects(rng, 10)), 1)
        assert set(hist.cell_arrays()) == {
            "Num", "Cov", "Xavg", "Yavg", "Num'", "Cov'", "Xavg'", "Yavg'",
        }


class TestEstimation:
    def test_level0_equals_parametric(self, uniform_pair):
        a, b = uniform_pair
        assert ph_selectivity(a, b, 0) == pytest.approx(parametric_selectivity(a, b))

    def test_reasonable_on_uniform(self, uniform_pair):
        a, b = uniform_pair
        truth = actual_selectivity(a.rects, b.rects)
        for level in (0, 2, 4):
            assert ph_selectivity(a, b, level) == pytest.approx(truth, rel=0.35)

    def test_improves_on_clustered_data(self):
        """Gridding is the whole point: PH at a moderate level must beat
        the parametric baseline on skewed data."""
        a = make_clustered(4000, seed=1, spread=0.05)
        b = make_clustered(4000, seed=2, spread=0.05)
        truth = actual_selectivity(a.rects, b.rects)
        err0 = abs(ph_selectivity(a, b, 0) - truth) / truth
        err4 = abs(ph_selectivity(a, b, 4) - truth) / truth
        assert err4 < err0 / 2

    def test_symmetry(self, uniform_pair):
        a, b = uniform_pair
        assert ph_selectivity(a, b, 3) == pytest.approx(ph_selectivity(b, a, 3))

    def test_grid_mismatch_rejected(self, uniform_pair):
        a, b = uniform_pair
        h1 = PHHistogram.build(a, 2)
        h2 = PHHistogram.build(b, 3)
        with pytest.raises(ValueError, match="same grid"):
            h1.estimate_selectivity(h2)

    def test_extent_mismatch_rejected(self, uniform_pair):
        a, b = uniform_pair
        h1 = PHHistogram.build(a, 2)
        h2 = PHHistogram.build(b, 2, extent=Rect(0, 0, 2, 2))
        with pytest.raises(ValueError, match="same grid"):
            h1.estimate_selectivity(h2)

    def test_empty_dataset_estimates_zero(self, uniform_pair):
        a, _ = uniform_pair
        empty = PHHistogram.build(SpatialDataset("e", RectArray.empty()), 2)
        full = PHHistogram.build(a, 2)
        assert full.estimate_selectivity(empty) == 0.0

    def test_datasets_must_share_extent(self, rng):
        a = SpatialDataset("a", random_rects(rng, 10), Rect.unit())
        b = SpatialDataset("b", random_rects(rng, 10), Rect(0, 0, 2, 2))
        with pytest.raises(ValueError):
            ph_selectivity(a, b, 2)


class TestSpanCorrection:
    def test_multiple_counting_without_correction(self):
        """Figure 1's point: boundary-spanning MBRs intersecting in
        several cells are multiply counted by the Sd term; the AvgSpan
        division reduces the estimate (by exactly the mean-span factor
        on the Sd component — Equation 3)."""
        # Rects straddling the center crossing of a 2x2 grid.
        rng = np.random.default_rng(0)
        n = 400
        cx = 0.5 + rng.uniform(-0.02, 0.02, n)
        cy = 0.5 + rng.uniform(-0.02, 0.02, n)
        rects = RectArray.from_centers(cx, cy, 0.2, 0.2)
        ds1 = SpatialDataset("a", rects)
        ds2 = SpatialDataset("b", rects.translate(0.001, 0.001).clip_to(Rect.unit()))
        ds2 = SpatialDataset("b", ds2.rects, Rect.unit())
        h1 = PHHistogram.build(ds1, 1)
        h2 = PHHistogram.build(ds2, 1)
        corrected = h1.estimate_pairs(h2)
        uncorrected = h1.estimate_pairs_uncorrected(h2)
        assert uncorrected > corrected
        # Every rect straddles the center crossing: AvgSpan is exactly 4,
        # and Equation 3 divides the (pure-Sd) estimate by it.
        assert h1.avg_span == pytest.approx(4.0)
        assert uncorrected / corrected == pytest.approx(4.0)

    def test_equation3_formula_verbatim(self, rng):
        """Reassemble Equation 3 from the stored cell arrays by hand and
        compare against estimate_pairs."""
        a = SpatialDataset("a", random_rects(rng, 300, max_side=0.3))
        b = SpatialDataset("b", random_rects(rng, 250, max_side=0.3))
        h1 = PHHistogram.build(a, 2)
        h2 = PHHistogram.build(b, 2)
        area = h1.grid.cell_area

        def case(n1, c1, x1, y1, n2, c2, x2, y2):
            return n1 * c2 + c1 * n2 + n1 * n2 * (x1 * y2 + y1 * x2) / area

        sa = case(h1.num, h1.cov, h1.xavg, h1.yavg, h2.num, h2.cov, h2.xavg, h2.yavg)
        sb = case(h1.num, h1.cov, h1.xavg, h1.yavg, h2.num_i, h2.cov_i, h2.xavg_i, h2.yavg_i)
        sc = case(h1.num_i, h1.cov_i, h1.xavg_i, h1.yavg_i, h2.num, h2.cov, h2.xavg, h2.yavg)
        sd = case(h1.num_i, h1.cov_i, h1.xavg_i, h1.yavg_i, h2.num_i, h2.cov_i, h2.xavg_i, h2.yavg_i)
        expected = sa.sum() + sb.sum() + sc.sum() + sd.sum() / (
            (h1.avg_span + h2.avg_span) / 2
        )
        assert h1.estimate_pairs(h2) == pytest.approx(float(expected))

    def test_correction_noop_when_nothing_spans(self, rng):
        from repro.datasets import make_grid_aligned

        ds = make_grid_aligned(500, seed=0, grid=4)
        h = PHHistogram.build(ds, 2)
        assert h.estimate_pairs(h) == pytest.approx(h.estimate_pairs_uncorrected(h))

    def test_estimator_flag(self, uniform_pair):
        a, b = uniform_pair
        h1 = PHHistogram.build(a, 4)
        h2 = PHHistogram.build(b, 4)
        on = h1.estimate_selectivity(h2, span_correction=True)
        off = h1.estimate_selectivity(h2, span_correction=False)
        assert off >= on


class TestSizeAccounting:
    def test_size_depends_only_on_level(self, rng):
        small = PHHistogram.build(SpatialDataset("s", random_rects(rng, 10)), 3)
        large = PHHistogram.build(SpatialDataset("l", random_rects(rng, 10_000)), 3)
        assert small.size_bytes == large.size_bytes

    def test_size_grows_4x_per_level(self, rng):
        ds = SpatialDataset("d", random_rects(rng, 10))
        s3 = PHHistogram.build(ds, 3).size_bytes
        s4 = PHHistogram.build(ds, 4).size_bytes
        assert s4 / s3 == pytest.approx(4.0, rel=0.01)
