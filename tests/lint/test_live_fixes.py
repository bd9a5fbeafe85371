"""Regression tests for the live R010/R012 fixes this lint layer forced.

Each fixed loop now reaches ``runtime.checkpoint``; these tests pin the
behavior the fix bought — the stages actually fire, and a zero deadline
cancels the kernels mid-loop — so a refactor that silently drops a
checkpoint fails here, not just in the (structural) lint gate.
"""

import numpy as np
import pytest

from repro.errors import EstimationTimeout
from repro.geometry import Rect
from repro.predicates import STANDARD_PREDICATES
from repro.predicates.joins import naive_predicate_count
from repro.rtree import FlatRTree, RTree, flat_join_count
from repro.rtree.query import search_intersecting
from repro.runtime import Deadline, runtime_scope

from tests.conftest import random_rects


@pytest.fixture
def rng():
    return np.random.default_rng(1106)


class Recorder:
    def __init__(self):
        self.stages = []

    def on_checkpoint(self, stage):
        self.stages.append(stage)


class TestPredicateJoinCheckpoints:
    def test_inner_block_loop_checkpoints(self, rng):
        a = random_rects(rng, 200, max_side=0.2)
        b = random_rects(rng, 200, max_side=0.2)
        hook = Recorder()
        with runtime_scope(hook=hook):
            naive_predicate_count(a, b, STANDARD_PREDICATES["intersects"], block=50)
        blocks = hook.stages.count("predicates.naive.block")
        # 4 outer blocks x 4 inner blocks (plus the per-outer poll):
        # an outer-only loop would stop at 4
        assert blocks >= 16

    def test_zero_deadline_cancels_mid_join(self, rng):
        a = random_rects(rng, 200, max_side=0.2)
        b = random_rects(rng, 200, max_side=0.2)
        with runtime_scope(deadline=Deadline(0.0)):
            with pytest.raises(EstimationTimeout):
                naive_predicate_count(
                    a, b, STANDARD_PREDICATES["intersects"], block=50
                )


class TestRTreeCheckpoints:
    def test_insert_query_and_join_checkpoint(self, rng):
        rects = random_rects(rng, 300, max_side=0.2)
        hook = Recorder()
        with runtime_scope(hook=hook):
            tree = RTree.from_rect_array(rects, max_entries=8)
            search_intersecting(tree.root, Rect(0.0, 0.0, 0.5, 0.5))
            flat = FlatRTree.from_tree(tree)
            flat_join_count(flat, flat)
        assert "rtree.insert" in hook.stages
        assert "rtree.split" in hook.stages
        assert "rtree.query.node" in hook.stages
        assert "rtree.flat.level" in hook.stages
        assert "rtree.flat.leaf" in hook.stages

    def test_zero_deadline_cancels_dynamic_build(self, rng):
        rects = random_rects(rng, 300, max_side=0.2)
        with runtime_scope(deadline=Deadline(0.0)):
            with pytest.raises(EstimationTimeout):
                RTree.from_rect_array(rects, max_entries=8)
