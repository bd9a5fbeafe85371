"""ResilientEstimator × HistogramCache: exact fallbacks, clean reuse."""

from __future__ import annotations

import pytest

from repro.core.estimator import GHEstimator, JoinSelectivityEstimator
from repro.datasets import make_clustered, make_uniform
from repro.errors import DegradedResultWarning, TransientEstimationError
from repro.perf import CachedEstimator, HistogramCache
from repro.service import FaultPlan, FaultSpec, ResilientEstimator, inject_faults
from tests.conftest import count_gh_builds


@pytest.fixture
def pair():
    return make_uniform(800, seed=21), make_clustered(800, seed=22)


class _AlwaysFails(JoinSelectivityEstimator):
    """Primary rung rigged to fail so the chain must degrade."""

    name = "rigged"

    def estimate(self, ds1, ds2) -> float:
        """Unconditionally transient-fail."""
        raise TransientEstimationError("rigged primary")


class TestCoarserRungDerivation:
    def test_fallback_rung_equals_cold_build_then_hits(self, pair, monkeypatch):
        """With a finer GH cached, the coarser-GH fallback rung builds its
        own level (never pools the finer one), answers ``==`` a cold
        estimate, and a second call is all L1 hits."""
        ds1, ds2 = pair
        cache = HistogramCache()
        cache.get_or_build(ds1, "gh", 6)
        cache.get_or_build(ds2, "gh", 6)

        est = ResilientEstimator(
            GHEstimator(level=6),
            chain=(_AlwaysFails(), GHEstimator(level=3)),
            cache=cache,
            retries=0,
        )
        with pytest.warns(DegradedResultWarning):
            result = est.estimate_detailed(ds1, ds2)
        assert cache.stats.derivations == 0
        assert result.provenance.rung == "gh(level=3)"
        assert result.selectivity == GHEstimator(level=3).estimate(ds1, ds2)

        calls = count_gh_builds(monkeypatch)
        hits = cache.stats.hits
        with pytest.warns(DegradedResultWarning):
            again = est.estimate_detailed(ds1, ds2)
        assert calls == []  # no rebuild anywhere in the chain
        assert cache.stats.hits == hits + 2
        assert again.selectivity == result.selectivity

    def test_chain_rungs_are_cache_wrapped(self, pair):
        cache = HistogramCache()
        est = ResilientEstimator("gh", level=6, cache=cache)
        wrapped = [r for r in est.chain if isinstance(r, CachedEstimator)]
        # gh(6), gh(coarser), and ph rungs all prepare through the cache.
        assert len(wrapped) == 3
        assert [r.name for r in wrapped] == ["gh", "gh", "ph"]

    def test_without_cache_chain_is_untouched(self):
        est = ResilientEstimator("gh", level=6)
        assert not any(isinstance(r, CachedEstimator) for r in est.chain)


class TestRepeatCalls:
    def test_second_call_is_all_hits(self, pair, monkeypatch):
        ds1, ds2 = pair
        cache = HistogramCache()
        est = ResilientEstimator("gh", level=5, cache=cache)
        first = est.estimate(ds1, ds2)
        calls = count_gh_builds(monkeypatch)
        second = est.estimate(ds1, ds2)
        assert calls == []
        assert second == first
        assert cache.stats.hits >= 2

    def test_cached_answer_matches_uncached(self, pair):
        ds1, ds2 = pair
        cached = ResilientEstimator("gh", level=5, cache=HistogramCache())
        plain = ResilientEstimator("gh", level=5)
        assert cached.estimate(ds1, ds2) == plain.estimate(ds1, ds2)


class TestFaultHygiene:
    def test_corrupted_build_never_poisons_the_cache(self, pair):
        """A fault-corrupted build must not be retained: the next clean
        call rebuilds and answers exactly what a cache-less estimator
        would."""
        ds1, ds2 = pair
        cache = HistogramCache()
        est = ResilientEstimator("gh", level=5, cache=cache, retries=0)
        plan = FaultPlan([FaultSpec(stage="gh.build.cells", kind="corrupt")])
        with inject_faults(plan), pytest.warns(DegradedResultWarning):
            degraded = est.estimate_detailed(ds1, ds2)
        assert degraded.provenance.rung_index > 0  # NaN stats were rejected
        assert len(cache) == 0  # nothing poisoned was retained
        clean = est.estimate_detailed(ds1, ds2)
        assert clean.provenance.rung == "gh(level=5)"
        assert clean.selectivity == ResilientEstimator("gh", level=5).estimate(ds1, ds2)
