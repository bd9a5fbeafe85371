"""Unit tests for the standalone ablation drivers."""

import pytest

from repro.datasets import make_clustered, make_uniform
from repro.eval import (
    prepare_pair,
    render_ablations,
    run_gh_variant_ablation,
    run_packing_ablation,
    run_ph_avgspan_ablation,
    run_sample_join_ablation,
)


@pytest.fixture(scope="module")
def context():
    a = make_uniform(1200, seed=80, mean_width=0.01, mean_height=0.01)
    b = make_clustered(1200, seed=81, mean_width=0.01, mean_height=0.01)
    return prepare_pair("U_C", a, b)


class TestGHVariantAblation:
    def test_shape(self, context):
        rows = run_gh_variant_ablation([context], levels=(3, 5))
        assert len(rows) == 4
        assert {r.variant for r in rows} == {"basic", "revised"}

    def test_revised_dominates(self, context):
        rows = run_gh_variant_ablation([context], levels=(3, 5, 7))
        by_level = {}
        for row in rows:
            by_level.setdefault(row.parameter, {})[row.variant] = row.error_pct
        for level, variants in by_level.items():
            assert variants["revised"] <= variants["basic"], level


class TestPHAvgSpanAblation:
    def test_correction_never_raises_estimate(self, context):
        rows = run_ph_avgspan_ablation([context], levels=(4, 6))
        # Uncorrected >= corrected estimate means: if truth is below the
        # corrected estimate, uncorrected error is larger; the sign can
        # flip otherwise, so only check rows exist and are finite.
        assert len(rows) == 4
        assert all(r.error_pct is not None for r in rows)


class TestSampleJoinAblation:
    def test_substrates_have_identical_errors(self, context):
        rows = run_sample_join_ablation([context], fractions=(0.2,))
        errors = {r.variant: r.error_pct for r in rows}
        assert errors["flat"] == pytest.approx(errors["sweep"])


class TestPackingAblation:
    def test_all_variants_present_below_limit(self, context):
        rows = run_packing_ablation([context])
        variants = {r.variant for r in rows}
        assert variants == {"str", "hilbert", "dynamic", "dynamic-rstar"}
        assert {r.parameter for r in rows} == {"build", "join"}

    def test_dynamic_skipped_above_limit(self, context):
        rows = run_packing_ablation([context], dynamic_limit=10)
        assert "dynamic" not in {r.variant for r in rows}

    def test_bulk_builds_faster_than_dynamic(self, context):
        rows = run_packing_ablation([context])
        seconds = {
            (r.variant, r.parameter): r.seconds for r in rows
        }
        assert seconds[("str", "build")] < seconds[("dynamic", "build")]


class TestRendering:
    def test_render_groups_by_study_and_pair(self, context):
        rows = run_gh_variant_ablation([context], levels=(3,))
        text = render_ablations(rows)
        assert "Ablation [gh-variant] — U_C" in text
        assert "revised" in text and "basic" in text

    def test_render_handles_missing_error(self, context):
        rows = run_packing_ablation([context], dynamic_limit=10)
        text = render_ablations(rows)
        assert " - " in text or "-" in text
