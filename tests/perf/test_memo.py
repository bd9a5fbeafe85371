"""Tier-0 estimate memo: bit-identity, token invalidation, fault discipline."""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np
import pytest

import repro.perf.fingerprint as fingerprint_mod
from repro.core import GHEstimator, PHEstimator
from repro.datasets import MutationToken, SpatialDataset
from repro.errors import InvalidDatasetError
from repro.geometry import Rect
from repro.histograms import apply_updates, GHHistogram
from repro.perf import (
    EstimateCache,
    EstimateKey,
    audit_fingerprint,
    dataset_fingerprint,
    dataset_fingerprint_uncached,
    peek_fingerprint,
    scheme_formula,
)
from repro.predicates import STANDARD_PREDICATES, create_predicate_estimator
from repro.runtime import runtime_scope
from tests.conftest import random_rects


@pytest.fixture
def pair(rng) -> "tuple[SpatialDataset, SpatialDataset]":
    return (
        SpatialDataset("a", random_rects(rng, 300)),
        SpatialDataset("b", random_rects(rng, 250)),
    )


class TestEstimateCache:
    def test_round_trip(self, pair):
        memo = EstimateCache(16)
        key = EstimateCache.key_for(*pair, "gh(level=4)", pair[0].extent)
        assert memo.get(key) is None
        memo.put(key, 0.125)
        assert memo.get(key) == 0.125
        assert memo.stats.misses == 1
        assert memo.stats.hits == 1
        assert len(memo) == 1

    def test_none_key_tolerated(self, pair):
        memo = EstimateCache(16)
        assert memo.get(None) is None
        assert (memo.stats.hits, memo.stats.misses) == (0, 1)  # a cold key is a miss
        memo.put(None, 1.0)  # no-op, not an error
        assert len(memo) == 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.5])
    def test_invalid_values_are_never_retained(self, pair, bad):
        memo = EstimateCache(16)
        key = EstimateCache.key_for(*pair, "gh(level=4)", pair[0].extent)
        memo.put(key, bad)
        assert len(memo) == 0
        memo.put(key, 0.5)
        memo.put(key, bad)  # nor does one overwrite a valid entry
        assert memo.get(key) == 0.5

    def test_lru_eviction(self, pair):
        """The memo is the shared retention tier with unit size and cost,
        so its order is exact LRU: every trace below ends with the keys
        (next victim first) and counters of an ``OrderedDict`` LRU."""
        rng = np.random.default_rng(7)
        traces = [
            (2, "p0 p1 g0 p2 g0 g1"),  # a get refreshes: 1 goes, not 0
            (2, "p0 p1 p0 p2"),  # so does a repeated put
            (3, "p0 p1 p2 p3 p4 p5 g3 g4 g5"),  # a cold scan evicts in order
            (1, "p0 g0 p1 g0 g1 p1"),
            (4, " ".join(f"{'pg'[rng.integers(2)]}{rng.integers(7)}" for _ in range(300))),
        ]
        for budget, trace in traces:
            memo = EstimateCache(budget)
            model: "OrderedDict[int, float]" = OrderedDict()
            expected = dict.fromkeys(("hits", "misses", "inserts", "evictions"), 0)
            keys = [
                EstimateKey("f1", "f2", f"gh(level={i})", (0.0, 0.0, 1.0, 1.0))
                for i in range(7)
            ]
            for op in trace.split():
                i = int(op[1:])
                if op[0] == "g":
                    expected["hits" if i in model else "misses"] += 1
                    if i in model:
                        model.move_to_end(i)
                    assert memo.get(keys[i]) == model.get(i)
                    continue
                if i in model:
                    model.move_to_end(i)
                else:
                    model[i] = i / 10
                    expected["inserts"] += 1
                    if len(model) > budget:
                        model.popitem(last=False)
                        expected["evictions"] += 1
                memo.put(keys[i], i / 10)
            assert memo.keys() == [keys[i] for i in model], trace
            snapshot = memo.stats.snapshot()
            assert {name: snapshot[name] for name in expected} == expected, trace
            assert len(memo) == len(model) <= budget

    def test_keys_are_ordered(self, pair):
        """Swapping the operands swaps the key: the combine's float
        additions happen in operand order, so (a, b) and (b, a) may
        differ in the last ulp and must not share an entry."""
        ds1, ds2 = pair
        forward = EstimateCache.key_for(ds1, ds2, "gh(level=4)", ds1.extent)
        reverse = EstimateCache.key_for(ds2, ds1, "gh(level=4)", ds1.extent)
        assert forward != reverse

    def test_fault_hook_bypasses_get_and_put(self, pair):
        memo = EstimateCache(16)
        key = EstimateCache.key_for(*pair, "gh(level=4)", pair[0].extent)
        memo.put(key, 0.5)
        with runtime_scope(hook=object()):
            assert memo.get(key) is None  # no lookup under a fault plan
            memo.put(key, 0.75)  # and no retention
        assert memo.stats.skips == 2
        assert memo.get(key) == 0.5  # clean value survives, fault value dropped

    def test_thread_safety_smoke(self, pair):
        memo = EstimateCache(64)
        keys = [
            EstimateKey("f1", "f2", f"gh(level={lvl})", (0.0, 0.0, 1.0, 1.0))
            for lvl in range(8)
        ]

        def worker(seed: int) -> None:
            for i in range(200):
                key = keys[(seed + i) % len(keys)]
                memo.put(key, float(i))
                memo.get(key)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(memo) <= 64


class TestBitIdentity:
    """A memo hit must replay *exactly* the float a cold estimate produces."""

    @pytest.mark.parametrize("kind", ["gh", "ph", "gh_basic", "parametric"])
    def test_intersects_estimators(self, pair, kind):
        from repro.core import create_estimator

        kwargs = {} if kind == "parametric" else {"level": 4}
        cold = create_estimator(kind, **kwargs).estimate(*pair)
        warm_est = create_estimator(kind, **kwargs)
        warm_est.memo = EstimateCache(16)
        first = warm_est.estimate(*pair)
        second = warm_est.estimate(*pair)
        assert warm_est.memo.stats.hits == 1
        assert first == cold
        assert second == cold  # bit-identical replay

    @pytest.mark.parametrize("kind", ["gh", "ph", "parametric"])
    @pytest.mark.parametrize("pred_name", sorted(STANDARD_PREDICATES))
    def test_predicate_estimators(self, pair, kind, pred_name):
        predicate = STANDARD_PREDICATES[pred_name]
        kwargs = {} if kind == "parametric" else {"level": 4}
        cold = create_predicate_estimator(kind, predicate, **kwargs).estimate(*pair)
        warm_est = create_predicate_estimator(kind, predicate, **kwargs)
        warm_est.memo = EstimateCache(16)
        first = warm_est.estimate(*pair)
        second = warm_est.estimate(*pair)
        assert warm_est.memo.stats.hits == 1
        assert first == cold == second

    def test_formulas_do_not_collide(self, pair):
        """Distinct estimator configurations share one memo without
        cross-talk: every (scheme, level, predicate) writes a distinct
        formula string."""
        from repro.core import create_estimator

        memo = EstimateCache(64)
        estimators = [
            create_estimator("gh", level=4),
            create_estimator("gh", level=5),
            create_estimator("ph", level=4),
            create_estimator("parametric"),
            create_predicate_estimator(
                "gh", STANDARD_PREDICATES["within_eps"], level=4
            ),
            create_predicate_estimator(
                "gh", STANDARD_PREDICATES["interval_x"], level=4
            ),
        ]
        cold = []
        for est in estimators:
            cold.append(est.estimate(*pair))
            est.memo = memo
        warm = [est.estimate(*pair) for est in estimators]
        replay = [est.estimate(*pair) for est in estimators]
        assert warm == cold == replay
        assert len({est.memo_formula() for est in estimators}) == len(estimators)


class TestMutationToken:
    def test_fresh_token_per_dataset(self, rng):
        a = SpatialDataset("a", random_rects(rng, 50))
        b = SpatialDataset("b", random_rects(rng, 50))
        assert a.token is not b.token

    def test_subset_gets_fresh_token_with_extent_shares_it(self, rng):
        ds = SpatialDataset("d", random_rects(rng, 100))
        dataset_fingerprint(ds)  # prime the memo on the parent
        sub = ds.subset(np.arange(10))
        grown = ds.with_extent(Rect(-1.0, -1.0, 2.0, 2.0))
        assert sub.token is not ds.token  # own arrays, own history
        assert grown.token is ds.token  # same arrays, same history
        # Derived datasets never inherit the parent's fingerprint memo.
        assert peek_fingerprint(sub) is None
        assert peek_fingerprint(grown) is None

    @pytest.mark.parametrize("writer", ["parent", "view"])
    def test_with_extent_view_sees_sanctioned_writes(self, rng, monkeypatch, writer):
        """A write through either object, plus ``mark_mutated()``, moves
        both fingerprints at once — no audit needed to notice."""
        monkeypatch.setattr(fingerprint_mod, "_AUDIT_INTERVAL", 1 << 62)
        ds = SpatialDataset("d", random_rects(rng, 100))
        grown = ds.with_extent(Rect(-1.0, -1.0, 2.0, 2.0))
        before = (dataset_fingerprint(ds), dataset_fingerprint(grown))
        target = ds if writer == "parent" else grown
        target.rects.xmin[0] = target.rects.xmin[0] / 2.0
        target.mark_mutated()
        assert peek_fingerprint(ds) is None
        assert peek_fingerprint(grown) is None
        after = (dataset_fingerprint(ds), dataset_fingerprint(grown))
        assert after == (dataset_fingerprint_uncached(ds), dataset_fingerprint_uncached(grown))
        assert after[0] != before[0] and after[1] != before[1]

    def test_fingerprint_memoized_until_bump(self, rng):
        ds = SpatialDataset("d", random_rects(rng, 100))
        assert peek_fingerprint(ds) is None
        first = dataset_fingerprint(ds)
        assert peek_fingerprint(ds) == first
        before = ds.token.version
        ds.mark_mutated()
        assert ds.token.version == before + 1
        assert peek_fingerprint(ds) is None  # memo invalidated
        assert dataset_fingerprint(ds) == first  # same bytes, same digest

    def test_memo_matches_uncached(self, rng):
        ds = SpatialDataset("d", random_rects(rng, 100))
        assert dataset_fingerprint(ds) == dataset_fingerprint_uncached(ds)
        assert dataset_fingerprint(ds) == dataset_fingerprint_uncached(ds)

    def test_tier0_invalidated_by_token_bump(self, pair):
        """After a sanctioned mutation the tier-0 key changes, so stale
        selectivities can never be replayed for new geometry."""
        ds1, ds2 = pair
        est = GHEstimator(level=4)
        est.memo = EstimateCache(16)
        stale = est.estimate(ds1, ds2)
        ds1.rects.xmax[0] = min(ds1.rects.xmax[0] + 0.01, 1.0)
        ds1.mark_mutated()
        fresh = est.estimate(ds1, ds2)
        assert est.memo.stats.hits == 0
        assert est.memo.stats.misses == 2
        assert fresh != stale

    def test_audit_catches_unsanctioned_mutation(self, rng):
        ds = SpatialDataset("d", random_rects(rng, 100))
        dataset_fingerprint(ds)
        ds.rects.xmin[0] = ds.rects.xmin[0] / 2.0  # no mark_mutated(): contract breach
        with pytest.raises(InvalidDatasetError, match="mark_mutated"):
            audit_fingerprint(ds)

    def test_apply_updates_bumps_token(self, rng):
        ds = SpatialDataset("d", random_rects(rng, 200))
        hist = GHHistogram.build(ds, 4)
        before = ds.token.version
        apply_updates(hist, added=random_rects(rng, 10), dataset=ds)
        assert ds.token.version == before + 1


class TestScopeDiscipline:
    def test_no_retention_under_fault_hook(self, pair):
        """An estimator evaluated under a fault plan must neither answer
        from nor poison the memo (the hook may have corrupted the
        build)."""
        est = GHEstimator(level=4)
        est.memo = EstimateCache(16)
        clean = est.estimate(*pair)
        with runtime_scope(hook=object()):
            faulted = est.estimate(*pair)
        assert len(est.memo) == 1  # only the clean entry
        assert est.memo.stats.skips == 2  # hook path skipped get and put
        assert faulted == clean  # an inert hook changes nothing numerically
        assert est.estimate(*pair) == clean

    def test_scheme_formula_matches_estimator_formula(self):
        assert scheme_formula("gh", 5) == GHEstimator(level=5).memo_formula()
        assert scheme_formula("ph", 4) == PHEstimator(level=4).memo_formula()
