"""Chaos and behavior tests for :class:`ResilientEstimator`.

The acceptance bar (ISSUE 1): with faults injected at every stage —
exception, latency past the deadline, corrupted cell statistics —
``ResilientEstimator.estimate`` never raises, always returns a finite
estimate in ``[0, inf)`` with a provenance record naming the fallback
rung used, and a no-fault run is bit-identical to calling the
underlying estimator directly.
"""

import math
import warnings

import numpy as np
import pytest

from repro.core.estimator import (
    GHEstimator,
    JoinSelectivityEstimator,
    ParametricEstimator,
    PHEstimator,
    SamplingEstimatorAdapter,
    create_estimator,
)
from repro.datasets import SpatialDataset
from repro.errors import DegradedResultWarning, InvalidDatasetError
from repro.geometry import Rect, RectArray
from repro.service import (
    FaultPlan,
    FaultSpec,
    ResilientEstimator,
    default_fallback_chain,
    inject_faults,
)
from tests.conftest import random_rects

#: Every cooperative checkpoint threaded through the library.
CHECKPOINT_STAGES = [
    "gh.build.corners",
    "gh.build.overlaps",
    "gh.build.edges",
    "ph.build.contained",
    "ph.build.spanning",
    "gh_basic.build",
    "sampling.pick",
    "sampling.build",
    "sampling.join",
]

#: Every per-cell statistics mutation point (corruption targets).
MUTATE_STAGES = ["gh.build.cells", "ph.build.cells", "gh_basic.build.cells"]


@pytest.fixture
def pair(rng):
    a = SpatialDataset("a", random_rects(rng, 150), Rect.unit())
    b = SpatialDataset("b", random_rects(rng, 200), Rect.unit())
    return a, b


def assert_sane(result):
    """The resilience invariant: finite, non-negative, with provenance."""
    assert isinstance(result.selectivity, float)
    assert math.isfinite(result.selectivity)
    assert result.selectivity >= 0.0
    assert result.provenance.rung  # names who answered
    assert result.provenance.attempts_total >= 0


class TestNoFaultPath:
    @pytest.mark.parametrize(
        "primary",
        [
            GHEstimator(level=4),
            PHEstimator(level=3),
            ParametricEstimator(),
            SamplingEstimatorAdapter(method="rs", fraction1=0.5, fraction2=0.5),
        ],
        ids=["gh", "ph", "parametric", "sampling"],
    )
    def test_bit_identical_to_direct_call(self, pair, primary):
        a, b = pair
        direct = primary.estimate(a, b)
        result = ResilientEstimator(primary).estimate_detailed(a, b)
        assert result.selectivity == direct  # exact, not approx
        assert result.provenance.rung_index == 0
        assert not result.provenance.degraded
        assert result.provenance.reason == ""

    def test_no_warning_on_clean_run(self, pair):
        a, b = pair
        with warnings.catch_warnings():
            warnings.simplefilter("error", DegradedResultWarning)
            ResilientEstimator(GHEstimator(level=3)).estimate(a, b)

    def test_single_attempt_recorded(self, pair):
        a, b = pair
        result = ResilientEstimator(GHEstimator(level=3)).estimate_detailed(*pair)
        assert [a_.outcome for a_ in result.provenance.attempts] == ["ok"]


class TestChaos:
    """Faults at every stage: the service must absorb all of them."""

    @pytest.mark.parametrize("stage", CHECKPOINT_STAGES)
    def test_exception_at_every_stage(self, pair, stage):
        est = ResilientEstimator(GHEstimator(level=4), retries=0)
        plan = FaultPlan([FaultSpec(stage)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            with inject_faults(plan):
                result = est.estimate_detailed(*pair)
        assert_sane(result)

    @pytest.mark.parametrize("stage", MUTATE_STAGES)
    def test_corruption_at_every_mutation_point(self, pair, stage):
        est = ResilientEstimator(GHEstimator(level=4), retries=0)
        plan = FaultPlan([FaultSpec(stage, kind="corrupt")])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            with inject_faults(plan):
                result = est.estimate_detailed(*pair)
        assert_sane(result)

    @pytest.mark.parametrize("stage", ["gh.build", "ph.build", "sampling"])
    def test_latency_past_deadline(self, pair, stage):
        est = ResilientEstimator(
            GHEstimator(level=4), deadline_s=0.01, retries=0,
            chain=(
                GHEstimator(level=4),
                SamplingEstimatorAdapter(method="rs", fraction1=0.5, fraction2=0.5),
                PHEstimator(level=2),
                ParametricEstimator(),
            ),
        )
        plan = FaultPlan([FaultSpec(stage, kind="latency", seconds=0.05)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            with inject_faults(plan):
                result = est.estimate_detailed(*pair)
        assert_sane(result)

    def test_everything_rigged_at_once_still_answers(self, pair):
        """Exception + latency + corruption across all stages at once."""
        specs = [FaultSpec(s) for s in CHECKPOINT_STAGES]
        specs += [FaultSpec(s, kind="corrupt") for s in MUTATE_STAGES]
        est = ResilientEstimator(GHEstimator(level=5), deadline_s=0.5, retries=1)
        plan = FaultPlan(specs)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            with inject_faults(plan):
                result = est.estimate_detailed(*pair)
        assert_sane(result)
        # Only the checkpoint-free parametric floor can have answered.
        assert result.provenance.rung == "parametric"
        assert result.provenance.degraded
        # It should still be a *useful* estimate, not a panic zero.
        assert result.selectivity > 0.0

    def test_degradation_order_respected(self, pair):
        """Rungs are consulted strictly in chain order as faults knock
        them out one class at a time."""
        est = ResilientEstimator(GHEstimator(level=5), retries=0)
        chain_names = [
            "gh(level=5)", "gh(level=2)", "ph(level=4)", "parametric",
        ]
        assert [  # default chain shape for GH level 5
            n for n in chain_names
        ] == [f"{r.name}(level={r.level})" if hasattr(r, "level") else r.name
              for r in est.chain]

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            # Nothing faulted: primary answers.
            assert est.estimate_detailed(*pair).provenance.rung == chain_names[0]
            # GH knocked out: the next distinct scheme (PH) answers.
            with inject_faults(FaultPlan([FaultSpec("gh.build")])):
                assert est.estimate_detailed(*pair).provenance.rung == chain_names[2]
            # GH and PH knocked out: parametric answers.
            with inject_faults(
                FaultPlan([FaultSpec("gh.build"), FaultSpec("ph.build")])
            ):
                assert est.estimate_detailed(*pair).provenance.rung == chain_names[3]

    def test_reason_names_the_first_failure(self, pair):
        """Two rungs fail before the floor answers: the provenance reason
        is why the *primary* did not answer, not the last failure."""
        chain = [
            Down("primary", OSError("primary down")),
            Down("coarse", RuntimeError("coarse down")),
            ParametricEstimator(),
        ]
        est = ResilientEstimator(chain[0], chain=chain, retries=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            result = est.estimate_detailed(*pair)
        assert result.provenance.rung == "parametric"
        assert [a.outcome for a in result.provenance.attempts] == ["error", "error", "ok"]
        assert result.provenance.reason == "primary error: OSError: primary down"

    def test_estimate_never_raises_smoke(self, pair):
        """Plain .estimate under total chaos returns a float, full stop."""
        specs = [FaultSpec(s) for s in CHECKPOINT_STAGES]
        est = ResilientEstimator(GHEstimator(level=4), retries=0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            with inject_faults(FaultPlan(specs)):
                value = est.estimate(*pair)
        assert math.isfinite(value) and value >= 0.0


class Down(JoinSelectivityEstimator):
    """A rung that always raises ``exc``."""

    def __init__(self, name, exc):
        self.name = name
        self.exc = exc

    def estimate(self, ds1, ds2):
        raise self.exc


class TestWarningLocation:
    """``DegradedResultWarning`` points at the caller of the public
    method, whichever method it is and however the walk ended."""

    @staticmethod
    def degraded():
        return ResilientEstimator(
            "gh", level=4, chain=[Down("gh", OSError("down")), ParametricEstimator()]
        )

    @staticmethod
    def zero_floor():
        return ResilientEstimator(
            "gh", level=4, chain=[Down("gh", OSError("down")), Down("p", OSError("down"))]
        )

    @pytest.mark.parametrize("path", ["degraded", "zero_floor"])
    @pytest.mark.parametrize("method", ["estimate", "estimate_detailed"])
    def test_warning_names_the_callers_file(self, pair, method, path):
        est = getattr(self, path)()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            getattr(est, method)(*pair)
        [w] = [w for w in caught if issubclass(w.category, DegradedResultWarning)]
        assert w.filename == __file__


class TestRetry:
    def test_transient_fault_survived_by_retry(self, pair):
        est = ResilientEstimator(GHEstimator(level=4), retries=1)
        plan = FaultPlan([FaultSpec("gh.build.corners", times=1)])
        with inject_faults(plan):
            result = est.estimate_detailed(*pair)
        # Primary answered on the second attempt — degraded is False
        # because the *requested* estimator produced the answer.
        assert result.provenance.rung_index == 0
        assert [a.outcome for a in result.provenance.attempts] == ["error", "ok"]

    def test_retry_exhaustion_falls_back(self, pair):
        est = ResilientEstimator(GHEstimator(level=4), retries=1)
        plan = FaultPlan([FaultSpec("gh.build.corners", times=4)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            with inject_faults(plan):
                result = est.estimate_detailed(*pair)
        assert result.provenance.rung_index > 0
        # Both GH rungs burned both attempts before PH answered.
        gh_attempts = [a for a in result.provenance.attempts if a.rung.startswith("gh")]
        assert len(gh_attempts) == 4

    def test_nontransient_fault_not_retried(self, pair):
        est = ResilientEstimator(GHEstimator(level=4), retries=3)
        plan = FaultPlan(
            [FaultSpec("gh.build.corners", exception=lambda: RuntimeError("hard"))]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            with inject_faults(plan):
                result = est.estimate_detailed(*pair)
        primary_attempts = [a for a in result.provenance.attempts if a.rung_index == 0]
        assert len(primary_attempts) == 1  # no retry on non-transient


class TestDeadline:
    def test_zero_deadline_degrades_to_parametric(self, pair):
        est = ResilientEstimator(GHEstimator(level=5), deadline_s=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            result = est.estimate_detailed(*pair)
        assert result.provenance.rung == "parametric"
        assert all(
            a.outcome == "timeout" for a in result.provenance.attempts[:-1]
        )
        assert result.selectivity > 0.0

    def test_generous_deadline_hits_primary(self, pair):
        est = ResilientEstimator(GHEstimator(level=4), deadline_s=60.0)
        result = est.estimate_detailed(*pair)
        assert result.provenance.rung_index == 0

    def test_backoff_pause_clamped_to_deadline_budget(self, pair):
        """Regression: a retry backoff longer than the remaining deadline
        used to sleep through the whole budget before discovering the
        timeout.  The pause must be skipped (and the retry abandoned)
        when it cannot fit, so fallback happens while budget remains."""
        import time

        est = ResilientEstimator(
            GHEstimator(level=4), retries=3, backoff_s=5.0, deadline_s=0.3
        )
        plan = FaultPlan([FaultSpec("gh.build.corners", times=99)])
        started = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegradedResultWarning)
            with inject_faults(plan):
                result = est.estimate_detailed(*pair)
        elapsed = time.perf_counter() - started
        # Without the clamp this takes >= 5s (the first pause alone).
        assert elapsed < 2.0
        assert_sane(result)

    def test_backoff_still_pauses_when_budget_allows(self, pair):
        est = ResilientEstimator(GHEstimator(level=4), retries=1, backoff_s=0.01)
        plan = FaultPlan([FaultSpec("gh.build.corners", times=1)])
        with inject_faults(plan):
            result = est.estimate_detailed(*pair)
        # The retry (after a fitting pause) still happens and answers.
        assert [a.outcome for a in result.provenance.attempts] == ["error", "ok"]


class TestValidationIntegration:
    def test_repaired_inputs_are_estimated_and_flagged(self, rng):
        # Inverted row smuggled past construction via validate=False
        # (the aggregate bounds stay valid, so __post_init__ passes).
        rects = RectArray(
            np.array([0.1, 0.5, 0.3]),
            np.array([0.1, 0.2, 0.3]),
            np.array([0.2, 0.3, 0.4]),  # row 1: xmin 0.5 > xmax 0.3
            np.array([0.2, 0.3, 0.4]),
            validate=False,
        )
        bad = SpatialDataset("bad", rects, Rect.unit())
        good = SpatialDataset("good", random_rects(rng, 50), Rect.unit())
        est = ResilientEstimator(GHEstimator(level=3))
        with pytest.warns(DegradedResultWarning):
            result = est.estimate_detailed(bad, good)
        assert_sane(result)
        assert result.provenance.degraded
        assert result.provenance.validation[0].repaired

    def test_mismatched_extents_reconciled(self, rng):
        a = SpatialDataset("a", random_rects(rng, 30), Rect.unit())
        b = SpatialDataset("b", random_rects(rng, 30), Rect(0, 0, 2, 2))
        est = ResilientEstimator(GHEstimator(level=3))
        with pytest.warns(DegradedResultWarning):
            result = est.estimate_detailed(a, b)
        assert_sane(result)

    def test_strict_policy_surfaces_invalid_input(self, rng):
        a = SpatialDataset("a", random_rects(rng, 10), Rect.unit())
        b = SpatialDataset("b", random_rects(rng, 10), Rect(0, 0, 2, 2))
        est = ResilientEstimator(GHEstimator(level=3), validation="strict")
        with pytest.raises(InvalidDatasetError):
            est.estimate(a, b)

    def test_empty_inputs_answer_zero(self):
        empty = SpatialDataset("e", RectArray.empty(), Rect.unit())
        est = ResilientEstimator(GHEstimator(level=3))
        result = est.estimate_detailed(empty, empty)
        assert result.selectivity == 0.0
        assert not result.provenance.degraded  # defined semantics, not failure


class TestConfiguration:
    def test_registry_construction(self):
        est = create_estimator("resilient", primary="gh", level=4, deadline_s=1.0)
        assert isinstance(est, ResilientEstimator)
        assert est.primary.level == 4
        assert est.deadline_s == 1.0

    def test_default_chain_shapes(self):
        gh_chain = default_fallback_chain(GHEstimator(level=7))
        assert [type(r).__name__ for r in gh_chain] == [
            "GHEstimator", "GHEstimator", "PHEstimator", "ParametricEstimator",
        ]
        assert gh_chain[1].level < gh_chain[0].level
        ph_chain = default_fallback_chain(PHEstimator(level=5))
        assert [type(r).__name__ for r in ph_chain] == [
            "PHEstimator", "PHEstimator", "ParametricEstimator",
        ]
        sampling_chain = default_fallback_chain(
            SamplingEstimatorAdapter(method="rs")
        )
        assert type(sampling_chain[-1]).__name__ == "ParametricEstimator"
        parametric_chain = default_fallback_chain(ParametricEstimator())
        assert len(parametric_chain) == 1

    def test_instance_kwargs_conflict_rejected(self):
        with pytest.raises(ValueError, match="kind name"):
            ResilientEstimator(GHEstimator(level=3), level=5)

    def test_bad_retries_rejected(self):
        with pytest.raises(ValueError, match="retries"):
            ResilientEstimator("gh", retries=-1)

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError, match="chain"):
            ResilientEstimator("gh", chain=())

    def test_bad_validation_policy_rejected_at_construction(self):
        with pytest.raises(ValueError, match="validation policy"):
            ResilientEstimator("gh", validation="yolo")

    def test_estimate_pairs_inherited_semantics(self, pair):
        a, b = pair
        est = ResilientEstimator(GHEstimator(level=3))
        assert est.estimate_pairs(a, b) == est.estimate(a, b) * len(a) * len(b)

    def test_repr_shows_chain(self):
        text = repr(ResilientEstimator(GHEstimator(level=5), deadline_s=0.5))
        assert "gh(level=5)" in text and "parametric" in text
