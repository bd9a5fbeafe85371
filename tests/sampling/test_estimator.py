"""Unit tests for the sampling join estimator."""

import numpy as np
import pytest

from repro.datasets import SpatialDataset, make_clustered, make_uniform
from repro.geometry import RectArray
from repro.join import actual_selectivity
from repro.perf import FlatTreeCache
from repro.sampling import ConfidenceEstimate, SamplingJoinEstimator


@pytest.fixture(scope="module")
def pair():
    a = make_uniform(4000, seed=10, mean_width=0.01, mean_height=0.01)
    b = make_clustered(4000, seed=11, mean_width=0.01, mean_height=0.01)
    truth = actual_selectivity(a.rects, b.rects)
    return a, b, truth


class TestValidation:
    def test_unknown_method(self):
        with pytest.raises(ValueError):
            SamplingJoinEstimator("bogus")

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.1])
    def test_bad_fractions(self, fraction):
        with pytest.raises(ValueError):
            SamplingJoinEstimator("rswr", fraction, 0.5)
        with pytest.raises(ValueError):
            SamplingJoinEstimator("rswr", 0.5, fraction)

    @pytest.mark.parametrize("join_method", ["rtree", "nested", ""])
    def test_unknown_join_method(self, join_method):
        with pytest.raises(ValueError, match="join_method"):
            SamplingJoinEstimator("rs", 0.1, 0.1, join_method=join_method)

    def test_repr(self):
        est = SamplingJoinEstimator("rs", 0.1, 0.2)
        assert "rs" in repr(est) and "0.1" in repr(est)


class TestExactnessAtFullFraction:
    @pytest.mark.parametrize("method", ["rs", "ss"])
    def test_full_sample_is_exact(self, pair, method):
        """With 100%/100% deterministic samples, the 'estimate' is the
        actual selectivity (the paper's '100' sides)."""
        a, b, truth = pair
        est = SamplingJoinEstimator(method, 1.0, 1.0)
        assert est.estimate(a, b) == pytest.approx(truth, rel=1e-12)

    def test_one_sided_sampling(self, pair):
        a, b, truth = pair
        est = SamplingJoinEstimator("rs", 0.1, 1.0)
        assert est.estimate(a, b) == pytest.approx(truth, rel=0.5)


class TestAccuracy:
    @pytest.mark.parametrize("method", ["rs", "rswr", "ss"])
    def test_ten_percent_reasonable(self, pair, method):
        """The paper's headline: ~10% samples give usable accuracy."""
        a, b, truth = pair
        est = SamplingJoinEstimator(method, 0.1, 0.1, seed=5)
        assert est.estimate(a, b) == pytest.approx(truth, rel=0.5)

    def test_rswr_estimates_vary_with_seed(self, pair):
        a, b, _ = pair
        e1 = SamplingJoinEstimator("rswr", 0.05, 0.05, seed=1).estimate(a, b)
        e2 = SamplingJoinEstimator("rswr", 0.05, 0.05, seed=2).estimate(a, b)
        assert e1 != e2

    def test_deterministic_methods_stable(self, pair):
        a, b, _ = pair
        e1 = SamplingJoinEstimator("rs", 0.05, 0.05, seed=1).estimate(a, b)
        e2 = SamplingJoinEstimator("rs", 0.05, 0.05, seed=99).estimate(a, b)
        assert e1 == e2

    def test_larger_samples_generally_better(self, pair):
        """Across seeds, the mean error at 20% should beat 0.5%."""
        a, b, truth = pair

        def mean_error(fraction):
            errors = []
            for seed in range(5):
                est = SamplingJoinEstimator("rswr", fraction, fraction, seed=seed)
                errors.append(abs(est.estimate(a, b) - truth) / truth)
            return sum(errors) / len(errors)

        assert mean_error(0.2) < mean_error(0.005)


class TestDetailedOutput:
    def test_fields(self, pair):
        a, b, _ = pair
        detail = SamplingJoinEstimator("rs", 0.1, 0.2).estimate_detailed(a, b)
        assert detail.sample_size_1 == pytest.approx(400, abs=5)
        assert detail.sample_size_2 == pytest.approx(800, abs=5)
        assert detail.sample_pairs >= 0
        assert detail.selectivity == detail.sample_pairs / (
            detail.sample_size_1 * detail.sample_size_2
        )

    def test_timing_breakdown(self, pair):
        a, b, _ = pair
        timing = SamplingJoinEstimator("ss", 0.1, 0.1).estimate_detailed(a, b).timing
        assert timing.pick_seconds >= 0
        assert timing.build_seconds >= 0
        assert timing.join_seconds >= 0
        assert timing.total_seconds == pytest.approx(
            timing.pick_seconds + timing.build_seconds + timing.join_seconds
        )

    def test_empty_dataset(self):
        empty = SpatialDataset("e", RectArray.empty())
        other = make_uniform(10, seed=0)
        detail = SamplingJoinEstimator("rswr").estimate_detailed(empty, other)
        assert detail.selectivity == 0.0
        assert detail.sample_size_1 == 0


class TestSSCostStructure:
    def test_ss_pick_slower_than_rs(self, pair):
        """SS pays for the Hilbert sort — the paper's reason to avoid it."""
        a, b, _ = pair
        rs_time = SamplingJoinEstimator("rs", 0.1, 0.1).estimate_detailed(a, b).timing
        ss_time = SamplingJoinEstimator("ss", 0.1, 0.1).estimate_detailed(a, b).timing
        assert ss_time.pick_seconds > rs_time.pick_seconds


class TestConfidenceIntervals:
    def test_interval_covers_truth_usually(self, pair):
        a, b, truth = pair
        est = SamplingJoinEstimator("rswr", 0.15, 0.15, seed=3)
        ci = est.estimate_with_confidence(a, b, repeats=12)
        assert ci.lower <= ci.mean <= ci.upper
        assert ci.repeats == 12
        # With z=1.96 and 12 repeats the interval should usually cover.
        assert ci.contains(truth)

    def test_interval_shrinks_with_sample_size(self, pair):
        a, b, _ = pair
        wide = SamplingJoinEstimator("rswr", 0.02, 0.02, seed=1)
        narrow = SamplingJoinEstimator("rswr", 0.3, 0.3, seed=1)
        ci_wide = wide.estimate_with_confidence(a, b, repeats=8)
        ci_narrow = narrow.estimate_with_confidence(a, b, repeats=8)
        assert ci_narrow.relative_halfwidth < ci_wide.relative_halfwidth

    def test_deterministic_methods_rejected(self, pair):
        a, b, _ = pair
        with pytest.raises(ValueError, match="deterministic"):
            SamplingJoinEstimator("rs").estimate_with_confidence(a, b)

    def test_too_few_repeats_rejected(self, pair):
        a, b, _ = pair
        with pytest.raises(ValueError, match="repeats"):
            SamplingJoinEstimator("rswr").estimate_with_confidence(a, b, repeats=1)

    def test_replicas_follow_the_seed_schedule(self, pair):
        """Replica ``run`` is a plain RSWR estimate seeded
        ``seed + 15485863 * (run + 1)``; the interval is their mean and
        standard error, and a shared tree cache sees every replica."""
        a, b, _ = pair
        base, repeats = 3, 4
        cache = FlatTreeCache()
        ci = SamplingJoinEstimator(
            "rswr", 0.15, 0.15, seed=base, tree_cache=cache
        ).estimate_with_confidence(a, b, repeats=repeats)
        values = np.array(
            [
                SamplingJoinEstimator(
                    "rswr", 0.15, 0.15, seed=base + 15485863 * (run + 1)
                ).estimate(a, b)
                for run in range(repeats)
            ]
        )
        assert ci.mean == float(values.mean())
        assert ci.std_error == float(values.std(ddof=1) / np.sqrt(repeats))
        assert cache.stats.builds == 2 * repeats

    def test_interval_is_pinned(self, pair):
        """A recorded interval: any change to the replica seeds, the draw
        or the interval arithmetic breaks ``==``."""
        a, b, _ = pair
        ci = SamplingJoinEstimator("rswr", 0.15, 0.15, seed=3).estimate_with_confidence(
            a, b, repeats=4
        )
        assert ci == ConfidenceEstimate(
            mean=0.00042569444444444447,
            std_error=1.9784558502631108e-05,
            lower=0.0003869167097792875,
            upper=0.00046447217910960145,
            repeats=4,
        )

    def test_lower_bound_nonnegative(self, pair):
        a, b, _ = pair
        ci = SamplingJoinEstimator("rswr", 0.01, 0.01, seed=2).estimate_with_confidence(
            a, b, repeats=5
        )
        assert ci.lower >= 0.0
