"""Batched estimation: equivalence, dedup, and runtime-scope fallback."""

from __future__ import annotations

import itertools

import pytest

from repro.core.estimator import BasicGHEstimator, GHEstimator, PHEstimator
from repro.datasets import SpatialDataset, paper_pairs
from repro.errors import EstimationTimeout
from repro.eval.timing import measure_best
from repro.geometry import Rect, RectArray
from repro.histograms import GHHistogram
from repro.perf import BatchQuery, EstimateCache, HistogramCache, estimate_many
from repro.runtime import Deadline, runtime_scope
from tests.conftest import count_gh_builds, random_rects


@pytest.fixture
def trio(rng) -> list[SpatialDataset]:
    return [SpatialDataset(f"d{i}", random_rects(rng, 300)) for i in range(3)]


class TestEquivalence:
    def test_matches_individual_estimates(self, trio):
        queries = [
            BatchQuery(trio[0], trio[1], "gh", 5),
            (trio[1], trio[2], "gh", 5),
            (trio[0], trio[2], "ph", 4),
            (trio[0], trio[1], "gh_basic", 4),
        ]
        singles = [
            GHEstimator(level=5).estimate(trio[0], trio[1]),
            GHEstimator(level=5).estimate(trio[1], trio[2]),
            PHEstimator(level=4).estimate(trio[0], trio[2]),
            BasicGHEstimator(level=4).estimate(trio[0], trio[1]),
        ]
        assert estimate_many(queries) == singles
        assert estimate_many(queries, cache=HistogramCache()) == singles

    def test_order_preserved(self, trio):
        pairs = list(itertools.combinations(trio, 2))
        queries = [(a, b, "gh", 4) for a, b in pairs] + [
            (b, a, "gh", 4) for a, b in pairs
        ]
        results = estimate_many(queries)
        # GH combine is symmetric, so the reversed half mirrors the first.
        assert results[: len(pairs)] == results[len(pairs) :]

    def test_empty_batch(self):
        assert estimate_many([]) == []

    def test_empty_side_answers_zero_without_building(self, trio, monkeypatch):
        calls = count_gh_builds(monkeypatch)
        empty = SpatialDataset("empty", RectArray.empty(), trio[0].extent)
        assert estimate_many([(trio[0], empty, "gh", 5)]) == [0.0]
        assert calls == []

    def test_extent_mismatch_raises(self, trio):
        """Like ``GHEstimator.estimate``, for a non-empty and an empty
        shifted side alike."""
        for rects in (trio[1].rects, RectArray.empty()):
            shifted = SpatialDataset("shifted", rects, Rect(-0.5, -0.5, 1.5, 1.5))
            with pytest.raises(ValueError, match="common extent"):
                GHEstimator(level=5).estimate(trio[0], shifted)
            with pytest.raises(ValueError, match="common extent"):
                estimate_many([BatchQuery(trio[0], shifted, "gh", 5)])

    def test_unknown_scheme_raises(self, trio):
        with pytest.raises(ValueError, match="unknown scheme"):
            estimate_many([(trio[0], trio[1], "nope", 3)])

    def test_each_pair_combines_once_through_its_histogram(self, trio, monkeypatch):
        """Same-grid GH pairs, both operand orders: one
        ``estimate_selectivity`` call per query, each ``==`` its cold
        estimate."""
        calls = []
        original = GHHistogram.estimate_selectivity

        def counting(self, other):
            calls.append((self, other))
            return original(self, other)

        monkeypatch.setattr(GHHistogram, "estimate_selectivity", counting)
        queries = [(a, b, "gh", 5) for a, b in itertools.permutations(trio, 2)]
        results = estimate_many(queries)
        assert len(calls) == len(queries)
        assert results == [GHEstimator(level=5).estimate(a, b) for a, b, *_ in queries]


class TestDeduplication:
    def test_builds_once_per_distinct_histogram(self, trio, monkeypatch):
        calls = count_gh_builds(monkeypatch)
        queries = [
            (a, b, "gh", 5) for a, b in itertools.product(trio, trio) if a is not b
        ]
        assert len(queries) == 6
        estimate_many(queries)
        assert len(calls) == 3  # one build per dataset, not per query

    def test_self_join_builds_once(self, trio, monkeypatch):
        calls = count_gh_builds(monkeypatch)
        estimate_many([(trio[0], trio[0], "gh", 5)])
        assert len(calls) == 1

    def test_warm_cache_builds_nothing(self, trio, monkeypatch):
        cache = HistogramCache()
        queries = [(trio[0], trio[1], "gh", 5), (trio[1], trio[2], "gh", 5)]
        estimate_many(queries, cache=cache)
        calls = count_gh_builds(monkeypatch)
        warm = estimate_many(queries, cache=cache)
        assert calls == []
        assert warm == estimate_many(queries)


class TestRuntimeScopeFallback:
    def test_serial_under_active_scope(self, trio, monkeypatch):
        """With a deadline or hook installed, builds must stay on the
        calling context (thread pools cannot see context-local scopes)."""
        import repro.perf.batch as batch_mod

        queries = [
            (a, b, "gh", 4) for a, b in itertools.product(trio, trio) if a is not b
        ]
        expected = estimate_many(queries)

        def boom(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("thread pool used under an active runtime scope")

        monkeypatch.setattr(batch_mod, "ThreadPoolExecutor", boom)
        with runtime_scope(deadline=Deadline(None)):
            results = estimate_many(queries)
        assert results == expected

    def test_deadline_still_enforced(self, trio):
        with runtime_scope(deadline=Deadline(0.0)):
            with pytest.raises(EstimationTimeout):
                estimate_many([(trio[0], trio[1], "gh", 6)])

    def test_parallel_path_matches_serial(self, trio):
        queries = [
            (a, b, scheme, level)
            for (a, b), scheme, level in itertools.product(
                itertools.combinations(trio, 2), ("gh", "ph"), (3, 5)
            )
        ]
        pooled = estimate_many(queries)
        with runtime_scope():  # any active scope runs the builds serially
            serial = estimate_many(queries)
        assert pooled == serial


class TestFingerprintDedup:
    def test_each_distinct_object_fingerprinted_once(self, trio, monkeypatch):
        """One batch folds each dataset *object* exactly once no matter
        how many queries reference it."""
        import repro.perf.batch as batch_mod

        calls: list[str] = []
        original = batch_mod.dataset_fingerprint

        def counting(dataset):
            calls.append(dataset.name)
            return original(dataset)

        monkeypatch.setattr(batch_mod, "dataset_fingerprint", counting)
        queries = [
            (a, b, scheme, level)
            for (a, b), scheme, level in itertools.product(
                itertools.product(trio, trio), ("gh", "ph"), (3, 4)
            )
            if a is not b
        ]
        assert len(queries) == 24
        estimate_many(queries)
        assert sorted(calls) == sorted(ds.name for ds in trio)


class TestSharedPool:
    def test_pool_is_created_once_and_reused(self, trio):
        import repro.perf.batch as batch_mod

        batch_mod._shutdown_shared_pool()
        queries = [(a, b, "gh", 4) for a, b in itertools.combinations(trio, 2)]
        estimate_many(queries)
        first = batch_mod._shared_pool
        assert first is not None
        estimate_many(queries)
        assert batch_mod._shared_pool is first

    def test_shutdown_then_rebuild(self, trio):
        import repro.perf.batch as batch_mod

        queries = [(a, b, "gh", 4) for a, b in itertools.combinations(trio, 2)]
        expected = estimate_many(queries)
        batch_mod._shutdown_shared_pool()
        assert batch_mod._shared_pool is None
        assert estimate_many(queries) == expected


class TestTier0Memo:
    def test_warm_batch_answers_from_memo(self, trio, monkeypatch):
        memo = EstimateCache(64)
        queries = [
            (trio[0], trio[1], "gh", 5),
            (trio[1], trio[2], "gh", 5),
            (trio[0], trio[2], "ph", 4),
        ]
        cold = estimate_many(queries, memo=memo)
        assert memo.stats.inserts == 3
        calls = count_gh_builds(monkeypatch)
        warm = estimate_many(queries, memo=memo)
        assert calls == []  # memo hits plan zero builds
        assert warm == cold  # and replay bit-identically
        assert memo.stats.hits == 3

    def test_memo_results_match_memoless(self, trio):
        queries = [
            (a, b, scheme, 4)
            for (a, b), scheme in itertools.product(
                itertools.combinations(trio, 2), ("gh", "ph", "gh_basic")
            )
        ]
        plain = estimate_many(queries)
        memo = EstimateCache(64)
        assert estimate_many(queries, memo=memo) == plain
        assert estimate_many(queries, memo=memo) == plain

    def test_duplicate_queries_in_one_batch(self, trio):
        """The same query twice in one batch: one build pass, identical
        answers in both positions."""
        memo = EstimateCache(64)
        query = (trio[0], trio[1], "gh", 5)
        results = estimate_many([query, query], memo=memo)
        assert results[0] == results[1]

    def test_fault_hook_disables_memo(self, trio):
        memo = EstimateCache(64)
        queries = [(trio[0], trio[1], "gh", 4)]
        clean = estimate_many(queries, memo=memo)
        with runtime_scope(hook=object()):
            faulted = estimate_many(queries, memo=memo)
        assert faulted == clean  # inert hook: same numbers
        assert memo.stats.hits == 0  # but the memo was never consulted
        assert len(memo) == 1  # nor extended under the hook


#: Warm ``estimate_many`` over a cache must beat cold per-query
#: estimation by at least this factor (measured ~14-19x on a 2-CPU
#: x86_64 host).
WARM_FLOOR = 5.0


def test_warm_batch_beats_cold_per_query_estimation():
    """50 GH level-7 queries cycling over the same-extent scale-200
    paper-dataset pairs; best of 3 on each side."""
    datasets = sorted(
        {ds.name: ds for pair in paper_pairs(scale=200.0).values() for ds in pair}.values(),
        key=lambda ds: ds.name,
    )
    pairs = [(a, b) for a, b in itertools.combinations(datasets, 2) if a.extent == b.extent]
    queries = [BatchQuery(*pairs[i % len(pairs)], scheme="gh", level=7) for i in range(50)]
    estimator = GHEstimator(level=7)

    def cold():
        return [estimator.estimate(q.ds1, q.ds2) for q in queries]

    cache = HistogramCache()
    assert estimate_many(queries, cache=cache) == cold()  # warms the cache
    cold_s = measure_best(cold, repeats=3)
    warm_s = measure_best(lambda: estimate_many(queries, cache=cache), repeats=3)
    assert cold_s / warm_s >= WARM_FLOOR, f"{cold_s / warm_s:.1f}x"
