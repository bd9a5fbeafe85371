"""Regression tests: the exact-join kernels honor cooperative deadlines.

The checkpoint-coverage lint rule (``repro.lint``) flagged the nested-loop and
plane-sweep loops as long kernel paths with no
:func:`repro.runtime.checkpoint`; these tests pin the fix — an expired
deadline now preempts both — and that the added checkpoints leave the
results bit-identical when no deadline is active.
"""

import numpy as np
import pytest

from repro.errors import EstimationTimeout
from repro.join import (
    nested_loop_count,
    nested_loop_pairs,
    plane_sweep_count,
    plane_sweep_pairs,
)
from repro.runtime import Deadline, runtime_scope
from tests.conftest import random_rects


@pytest.fixture
def pair(rng):
    return random_rects(rng, 120), random_rects(rng, 140)


class TestExpiredDeadlinePreempts:
    def test_nested_loop_count(self, pair):
        a, b = pair
        with runtime_scope(Deadline(0.0)):
            with pytest.raises(EstimationTimeout) as excinfo:
                nested_loop_count(a, b)
        assert excinfo.value.stage == "join.naive.block"

    def test_nested_loop_pairs(self, pair):
        a, b = pair
        with runtime_scope(Deadline(0.0)):
            with pytest.raises(EstimationTimeout):
                nested_loop_pairs(a, b)

    def test_plane_sweep_count(self, pair):
        a, b = pair
        with runtime_scope(Deadline(0.0)):
            with pytest.raises(EstimationTimeout) as excinfo:
                plane_sweep_count(a, b)
        assert excinfo.value.stage == "join.planesweep.events"

    def test_plane_sweep_pairs(self, pair):
        a, b = pair
        with runtime_scope(Deadline(0.0)):
            with pytest.raises(EstimationTimeout):
                plane_sweep_pairs(a, b)


class TestCheckpointsAreTransparent:
    """With no scope (or budget to spare) the results are unchanged."""

    def test_results_identical_under_generous_deadline(self, pair):
        a, b = pair
        bare_count = nested_loop_count(a, b)
        bare_pairs = plane_sweep_pairs(a, b)
        with runtime_scope(Deadline(60.0)):
            assert nested_loop_count(a, b) == bare_count
            assert np.array_equal(plane_sweep_pairs(a, b), bare_pairs)
        assert plane_sweep_count(a, b) == bare_count

    def test_empty_inputs_skip_checkpoints(self, pair):
        a, _ = pair
        empty = a[np.zeros(0, dtype=np.int64)]
        # Even with an expired deadline, the empty fast path answers: no
        # kernel loop runs, so no checkpoint fires.
        with runtime_scope(Deadline(0.0)):
            assert nested_loop_count(empty, a) == 0
