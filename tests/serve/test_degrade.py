"""The degradation ladder: pressure thresholds and failure descent."""

import pytest

from repro.serve import DegradationLadder, DegradePolicy, ServeProvenance, ServiceRung


class TestPolicy:
    def test_defaults_are_ordered(self):
        policy = DegradePolicy()
        assert 0 < policy.cached_at <= policy.parametric_at <= policy.shed_at

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cached_at": 0.0},
            {"cached_at": 0.8, "parametric_at": 0.7},
            {"parametric_at": 0.99, "shed_at": 0.98},
        ],
    )
    def test_bad_policies_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DegradePolicy(**kwargs)


class TestSelection:
    def test_thresholds_are_inclusive(self):
        ladder = DegradationLadder(
            DegradePolicy(cached_at=0.5, parametric_at=0.75, shed_at=0.95)
        )
        assert ladder.select(0.0) is ServiceRung.FULL
        assert ladder.select(0.49) is ServiceRung.FULL
        assert ladder.select(0.50) is ServiceRung.CACHED
        assert ladder.select(0.74) is ServiceRung.CACHED
        assert ladder.select(0.75) is ServiceRung.PARAMETRIC
        assert ladder.select(0.95) is ServiceRung.SHED
        assert ladder.select(1.0) is ServiceRung.SHED


class TestDescent:
    def test_descent_order_and_floor(self):
        assert DegradationLadder.next_below(ServiceRung.FULL) is ServiceRung.CACHED
        assert DegradationLadder.next_below(ServiceRung.CACHED) is ServiceRung.PARAMETRIC
        assert DegradationLadder.next_below(ServiceRung.PARAMETRIC) is None

    def test_descent_never_sheds(self):
        rung = ServiceRung.FULL
        seen = []
        while rung is not None:
            seen.append(rung)
            rung = DegradationLadder.next_below(rung)
        assert ServiceRung.SHED not in seen


class TestAccounting:
    def test_record_and_snapshot(self):
        ladder = DegradationLadder()
        ladder.record(ServiceRung.FULL)
        ladder.record(ServiceRung.FULL)
        ladder.record(ServiceRung.SHED)
        assert ladder.snapshot() == {
            "full": 2, "cached-coarse": 0, "parametric": 0, "shed": 1,
        }


class TestProvenance:
    def test_provenance_is_frozen(self):
        prov = ServeProvenance(
            rung="full", requested="gh(level=7)", degraded=False, pressure=0.1
        )
        with pytest.raises(AttributeError):
            prov.rung = "shed"
