"""The one rung walker both front doors descend through."""

import math
import time

import pytest

from repro.core.estimator import GHEstimator, ParametricEstimator, PHEstimator
from repro.errors import EstimationTimeout, TransientEstimationError
from repro.runtime import Deadline
from repro.service import Descent

CHAIN = (GHEstimator(level=7), GHEstimator(level=4), PHEstimator(level=4), ParametricEstimator())


def walk_with(outcomes, **kwargs):
    """Walk ``CHAIN``, feeding each attempt the next of ``outcomes`` (an
    exception to raise or a value to answer); returns the walk and the
    ``pause_s`` owed before each attempt."""
    walk = Descent(CHAIN, **kwargs)
    feed = iter(outcomes)
    pauses = []
    for _ in walk:
        pauses.append(walk.pause_s)
        with walk.attempt():
            outcome = next(feed)
            if isinstance(outcome, BaseException):
                raise outcome
            walk.value = outcome
    return walk, pauses


def steps(walk):
    return [(a.rung, a.attempt, a.outcome) for a in walk.attempts]


class TestDescent:
    def test_first_rung_answers(self):
        walk, _ = walk_with([0.25])
        assert (walk.index, walk.value, walk.error, walk.reason) == (0, 0.25, None, "")
        assert steps(walk) == [("gh(level=7)", 1, "ok")]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -0.5])
    def test_invalid_value_moves_one_rung_down(self, bad):
        walk, _ = walk_with([bad, 0.125])
        assert (walk.index, walk.value) == (1, 0.125)
        assert steps(walk) == [("gh(level=7)", 1, "invalid-result"), ("gh(level=4)", 1, "ok")]
        assert walk.reason.startswith(
            "gh(level=7) invalid-result: EstimatorUnavailable: rung gh(level=7) produced"
        )

    def test_start_index_skips_the_rungs_above(self):
        walk, _ = walk_with([0.5], start=2)
        assert steps(walk) == [("ph(level=4)", 1, "ok")]

    def test_every_rung_failing_keeps_the_last_error_and_the_first_reason(self):
        errors = [OSError("a"), EstimationTimeout("b"), RuntimeError("c"), ValueError("d")]
        walk, _ = walk_with(errors)
        assert walk.index == len(CHAIN)
        assert walk.error is errors[-1]
        assert [a.outcome for a in walk.attempts] == ["error", "timeout", "error", "error"]
        assert walk.reason == "gh(level=7) error: OSError: a"

    def test_transient_faults_retry_with_doubling_pauses_and_no_sleep(self):
        flake = TransientEstimationError("flake")
        started = time.perf_counter()
        walk, pauses = walk_with([flake, flake, 0.5], retries=2, backoff_s=60.0)
        assert time.perf_counter() - started < 1.0  # owed, never slept
        assert pauses == [0.0, 60.0, 120.0]
        assert steps(walk) == [
            ("gh(level=7)", 1, "error"), ("gh(level=7)", 2, "error"), ("gh(level=7)", 3, "ok"),
        ]
        assert (walk.index, walk.reason) == (0, "")

    def test_retries_exhausted_moves_down(self):
        flake = TransientEstimationError("flake")
        walk, _ = walk_with([flake, flake, 0.5], retries=1)
        assert steps(walk) == [
            ("gh(level=7)", 1, "error"), ("gh(level=7)", 2, "error"), ("gh(level=4)", 1, "ok"),
        ]

    def test_pause_longer_than_the_budget_drops_the_retry(self):
        flake = TransientEstimationError("flake")
        walk, pauses = walk_with(
            [flake, 0.5], retries=3, backoff_s=5.0, deadline=Deadline(3.0)
        )
        assert pauses == [0.0, 0.0]
        assert steps(walk) == [("gh(level=7)", 1, "error"), ("gh(level=4)", 1, "ok")]

    def test_base_exceptions_propagate_unrecorded(self):
        walk = Descent(CHAIN)
        with pytest.raises(KeyboardInterrupt):
            for _ in walk:
                with walk.attempt():
                    raise KeyboardInterrupt
        assert (walk.index, walk.attempts) == (0, [])
