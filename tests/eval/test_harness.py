"""Unit tests for the figure-reproduction harness."""

import math

import pytest

from repro.core import SampleCombo
from repro.datasets import make_clustered, make_uniform
from repro.eval import (
    prepare_pair,
    prepare_pairs,
    render_figure6,
    render_figure7,
    run_histogram_experiment,
    run_sampling_experiment,
)
from repro.join import actual_selectivity
from repro.runtime import runtime_scope


@pytest.fixture(scope="module")
def context():
    a = make_uniform(1500, seed=40, mean_width=0.01, mean_height=0.01)
    b = make_clustered(1500, seed=41, mean_width=0.01, mean_height=0.01)
    return prepare_pair("U_C", a, b)


class TestPreparePair:
    def test_ground_truth_matches_exact_join(self, context):
        truth = actual_selectivity(context.ds1.rects, context.ds2.rects)
        assert context.actual_selectivity == pytest.approx(truth, rel=1e-12)
        assert context.actual_pairs == round(
            truth * len(context.ds1) * len(context.ds2)
        )

    def test_reference_costs_positive(self, context):
        assert context.join_seconds > 0
        assert context.build_seconds > 0
        assert context.rtree_bytes > 0

    def test_prepare_pairs_mapping(self):
        a = make_uniform(200, seed=1)
        b = make_uniform(200, seed=2)
        contexts = prepare_pairs({"X": (a, b), "Y": (b, a)})
        assert [c.name for c in contexts] == ["X", "Y"]


class StageRecorder:
    def __init__(self):
        self.stages = set()

    def on_checkpoint(self, stage):
        self.stages.add(stage)

    def join_stages(self):
        """Stages polled by join kernels (not by builds or the estimator's
        own pick/build/join markers)."""
        kernels = ("join.", "rtree.join", "rtree.flat.", "predicates.")
        return {
            s for s in self.stages if s.startswith(kernels) and s != "rtree.flat.level"
        }


class TestOneJoinKernel:
    """The reference join and the sample joins that Figure 6's time
    ratios divide run the same kernel."""

    @pytest.mark.parametrize("tree_build", ["str", "dynamic"])
    def test_reference_join_runs_the_flat_kernel(self, tree_build):
        a = make_uniform(600, seed=42, mean_width=0.02, mean_height=0.02)
        b = make_clustered(600, seed=43, mean_width=0.02, mean_height=0.02)
        hook = StageRecorder()
        with runtime_scope(hook=hook):
            ctx = prepare_pair("U_C", a, b, tree_build=tree_build)
        assert ctx.actual_pairs == round(
            actual_selectivity(a.rects, b.rects) * len(a) * len(b)
        )
        assert "rtree.flat.leaf" in hook.join_stages()
        assert hook.join_stages() <= {"rtree.flat.descend", "rtree.flat.leaf"}

    def test_figure6_sample_join_runs_the_flat_kernel(self, context):
        hook = StageRecorder()
        with runtime_scope(hook=hook):
            run_sampling_experiment(
                [context], combos=(SampleCombo(10, 10),), methods=("rs",), repeats=1
            )
        assert "sampling.join" in hook.stages
        assert "rtree.flat.leaf" in hook.join_stages()
        assert hook.join_stages() <= {"rtree.flat.descend", "rtree.flat.leaf"}


class TestSamplingExperiment:
    def test_shape_and_metrics(self, context):
        combos = (SampleCombo(10, 10), SampleCombo(100, 10))
        cells = run_sampling_experiment(
            [context], combos=combos, methods=("rs", "rswr"), repeats=2
        )
        assert len(cells) == 4
        for cell in cells:
            assert cell.pair == "U_C"
            assert cell.error_pct >= 0
            assert cell.est_time2_pct >= cell.est_time1_pct  # smaller denominator
            assert cell.seconds > 0

    def test_full_sample_near_zero_error(self, context):
        cells = run_sampling_experiment(
            [context], combos=(SampleCombo(100, 100),), methods=("rs",), repeats=1
        )
        assert cells[0].error_pct < 1e-9

    def test_unknown_method_propagates(self, context):
        with pytest.raises(ValueError):
            run_sampling_experiment(
                [context], combos=(SampleCombo(10, 10),), methods=("bogus",)
            )


class TestHistogramExperiment:
    def test_shape_and_metrics(self, context):
        cells = run_histogram_experiment([context], levels=(0, 2, 4), schemes=("ph", "gh"))
        assert len(cells) == 6
        schemes = {c.scheme for c in cells}
        assert schemes == {"ph", "gh"}
        for cell in cells:
            assert cell.error_pct >= 0
            assert cell.space_bytes > 0
            assert cell.build_seconds > 0

    def test_ph_and_gh_agree_at_level0(self, context):
        cells = run_histogram_experiment([context], levels=(0,), schemes=("ph", "gh"))
        ph, gh = cells
        assert ph.selectivity == pytest.approx(gh.selectivity)

    def test_space_grows_with_level(self, context):
        cells = run_histogram_experiment([context], levels=(2, 5), schemes=("gh",))
        assert cells[1].space_bytes > cells[0].space_bytes

    def test_unknown_scheme_rejected(self, context):
        with pytest.raises(ValueError, match="unknown scheme"):
            run_histogram_experiment([context], schemes=("fancy",))

    def test_basic_gh_supported(self, context):
        cells = run_histogram_experiment([context], levels=(2,), schemes=("gh_basic",))
        assert cells[0].scheme == "gh_basic"


class TestRendering:
    def test_figure6_layout(self, context):
        cells = run_sampling_experiment(
            [context], combos=(SampleCombo(10, 10),), methods=("rs",), repeats=1
        )
        text = render_figure6(cells)
        assert "Figure 6 — U_C" in text
        assert "10/10" in text
        assert "RS" in text

    def test_figure7_layout(self, context):
        cells = run_histogram_experiment([context], levels=(0, 1), schemes=("gh",))
        text = render_figure7(cells)
        assert "Figure 7 — U_C" in text
        assert "GH" in text
        assert "est.time" in text

    def test_format_pct(self):
        from repro.eval import format_pct

        assert format_pct(1234.5) == "1234%"
        assert format_pct(12.34) == "12.3%"
        assert format_pct(0.1234) == "0.123%"
        assert format_pct(0.00012) == "1.2e-04%"
        assert format_pct(math.inf) == "inf"
        assert format_pct(math.nan) == "nan"


class TestTreeBuildOption:
    def test_dynamic_build_slower_but_same_truth(self):
        from repro.datasets import make_uniform

        a = make_uniform(800, seed=70)
        b = make_uniform(800, seed=71)
        fast = prepare_pair("p", a, b, tree_build="str")
        slow = prepare_pair("p", a, b, tree_build="dynamic")
        assert slow.actual_pairs == fast.actual_pairs
        assert slow.build_seconds > fast.build_seconds

    def test_unknown_tree_build_rejected(self):
        from repro.datasets import make_uniform

        a = make_uniform(10, seed=0)
        with pytest.raises(ValueError, match="tree_build"):
            prepare_pair("p", a, a, tree_build="quantum")

    def test_prepare_pairs_forwards_option(self):
        from repro.datasets import make_uniform

        a = make_uniform(100, seed=1)
        contexts = prepare_pairs({"X": (a, a)}, tree_build="dynamic")
        assert contexts[0].actual_pairs > 0


class TestZeroSelectivityPair:
    def test_infinite_error_rendered(self):
        """A join with no results: any positive estimate has infinite
        relative error, and the renderer must not crash on it."""
        from repro.datasets import make_clustered
        from repro.eval import render_figure7, run_histogram_experiment

        west = make_clustered(300, seed=150, center=(0.1, 0.1), spread=0.01)
        east = make_clustered(300, seed=151, center=(0.9, 0.9), spread=0.01)
        ctx = prepare_pair("disjoint", west, east)
        assert ctx.actual_selectivity == 0.0
        cells = run_histogram_experiment([ctx], levels=(0,), schemes=("gh",))
        text = render_figure7(cells)
        assert "inf" in text  # h=0 parametric estimate > 0 vs truth 0

    def test_fine_gh_sees_the_emptiness(self):
        from repro.datasets import make_clustered
        from repro.eval import run_histogram_experiment

        west = make_clustered(300, seed=150, center=(0.1, 0.1), spread=0.01)
        east = make_clustered(300, seed=151, center=(0.9, 0.9), spread=0.01)
        ctx = prepare_pair("disjoint", west, east)
        cells = run_histogram_experiment([ctx], levels=(3,), schemes=("gh",))
        assert cells[0].selectivity == 0.0
        assert cells[0].error_pct == 0.0
