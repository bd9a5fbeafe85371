"""Numeric robustness: join engines on extreme coordinate regimes.

Geographic data comes in many units — degrees, meters (UTM: values in
the hundreds of thousands), web-mercator (tens of millions).  The exact
engines must agree regardless of magnitude and offset.
"""

import pytest

from repro.geometry import Rect, RectArray
from repro.join import join_count, nested_loop_count, plane_sweep_count
from repro.rtree import flat_join_count, flat_load_str
from tests.conftest import random_rects

REGIMES = [
    ("unit", Rect(0, 0, 1, 1)),
    ("utm_meters", Rect(430_000.0, 4_580_000.0, 530_000.0, 4_700_000.0)),
    ("web_mercator", Rect(-1.3e7, 3.9e6, -1.29e7, 4.0e6)),
    ("tiny_micro", Rect(0.0, 0.0, 1e-6, 1e-6)),
    ("negative_quadrant", Rect(-500.0, -800.0, -100.0, -300.0)),
]


@pytest.mark.parametrize("name,extent", REGIMES, ids=[r[0] for r in REGIMES])
class TestEngineAgreementAcrossRegimes:
    def test_counts_agree(self, rng, name, extent):
        a = random_rects(rng, 400, extent=extent)
        b = random_rects(rng, 400, extent=extent)
        reference = nested_loop_count(a, b)
        assert plane_sweep_count(a, b) == reference
        assert join_count(a, b) == reference
        assert flat_join_count(flat_load_str(a), flat_load_str(b)) == reference

    def test_histograms_work(self, rng, name, extent):
        from repro.datasets import SpatialDataset
        from repro.histograms import gh_selectivity
        from repro.join import actual_selectivity

        a = SpatialDataset("a", random_rects(rng, 1200, extent=extent), extent)
        b = SpatialDataset("b", random_rects(rng, 1200, extent=extent), extent)
        truth = actual_selectivity(a.rects, b.rects)
        if truth:
            assert gh_selectivity(a, b, 4) == pytest.approx(truth, rel=0.4)


class TestMixedMagnitudes:
    def test_giant_and_tiny_rects_together(self, rng):
        giant = RectArray.from_rects([Rect(-1e6, -1e6, 1e6, 1e6)])
        tiny = random_rects(rng, 200, extent=Rect(0, 0, 1e-3, 1e-3))
        merged = RectArray.concatenate([giant, tiny])
        other = random_rects(rng, 200)
        reference = nested_loop_count(merged, other)
        assert join_count(merged, other, method="rtree") == reference
        assert plane_sweep_count(merged, other) == reference
