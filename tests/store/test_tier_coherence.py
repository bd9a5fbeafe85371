"""Property: every tier answers ``==`` a cold estimate of the same rung.

A histogram selectivity must not depend on where its statistics came
from.  Over gh / ph / gh_basic × levels, with requests that go finer
then coarser (the order in which a cache holding a finer GH could be
tempted to pool it down), each of these answers equals the cold
``estimate`` of the rung that produced it, bit for bit:

* a fresh build, an L1 hit and a memo replay through
  :class:`~repro.perf.CachedEstimator`;
* a store load from a temporary :class:`~repro.store.ArtifactCatalog`;
* every serve rung (``full``, ``cached-coarse``, ``parametric``) of
  :class:`~repro.serve.EstimationServer`, and its memo fast lane;
* every rung of the :class:`~repro.service.ResilientEstimator` chain.

Lower rungs are reached by failure descent: the rungs above the target
fail, so the ladder walks down to it over a cache that already holds
the finer levels.
"""

import asyncio
import tempfile
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.estimator import JoinSelectivityEstimator, create_estimator
from repro.datasets import SpatialDataset
from repro.errors import DegradedResultWarning, TransientEstimationError
from repro.perf import CachedEstimator, EstimateCache, HistogramCache
from repro.serve import EstimationServer, ServeRequest, ServerConfig
from repro.service import ResilientEstimator, default_fallback_chain
from repro.store import ArtifactCatalog
from tests.conftest import random_rects

SCHEMES = ("gh", "ph", "gh_basic")


def _pair(seed: int, n1: int, n2: int) -> "tuple[SpatialDataset, SpatialDataset]":
    rng = np.random.default_rng(seed)
    return (
        SpatialDataset("a", random_rects(rng, n1, max_side=0.2)),
        SpatialDataset("b", random_rects(rng, n2, max_side=0.2)),
    )


class _Down(JoinSelectivityEstimator):
    """A rung that always fails, so the ladder descends past it."""

    name = "down"

    def estimate(self, ds1, ds2) -> float:
        raise TransientEstimationError("rung down")


def _check_cache_tiers(scheme, levels, ds1, ds2):
    cache = HistogramCache()
    for level in levels:
        estimator = create_estimator(scheme, level=level)
        cold = estimator.estimate(ds1, ds2)
        for expected_source in ("build", "l1"):
            hist1, src1 = cache.resolve(ds1, scheme, level)
            hist2, src2 = cache.resolve(ds2, scheme, level)
            assert (src1, src2) == (expected_source, expected_source)
            assert estimator.combine(hist1, hist2) == cold
        memo = EstimateCache()
        cached = CachedEstimator(estimator, cache, memo=memo)
        assert cached.estimate(ds1, ds2) == cold
        assert cached.estimate(ds1, ds2) == cold
        assert memo.stats.hits == 1
    assert cache.stats.derivations == 0


def _check_store_tier(scheme, levels, ds1, ds2):
    with tempfile.TemporaryDirectory() as root:
        writer = HistogramCache(store=ArtifactCatalog(root))
        for level in levels:
            writer.get_or_build(ds1, scheme, level)
            writer.get_or_build(ds2, scheme, level)
        reader = HistogramCache(store=ArtifactCatalog(root))
        for level in levels:
            estimator = create_estimator(scheme, level=level)
            hist1, src1 = reader.resolve(ds1, scheme, level)
            hist2, src2 = reader.resolve(ds2, scheme, level)
            assert (src1, src2) == ("store", "store")
            assert estimator.combine(hist1, hist2) == estimator.estimate(ds1, ds2)
        assert reader.stats.builds == 0


def _failing(resolve, down):
    """Wrap a cache ``resolve`` so the ``(scheme, level)`` rungs in
    ``down`` fail instead of answering."""

    def resolve_or_fail(dataset, scheme="gh", level=7, **kwargs):
        if (scheme, level) in down:
            raise RuntimeError(f"{scheme}(level={level}) down")
        return resolve(dataset, scheme, level, **kwargs)

    return resolve_or_fail


def _check_serve_rungs(scheme, levels, ds1, ds2):
    # No memo: every rung below ``full`` stays reachable by descent.
    server = EstimationServer([ds1, ds2], ServerConfig(memo_entries=0))
    resolve = server.cache.resolve
    fast = EstimationServer([ds1, ds2])

    async def go():
        async with server, fast:
            for level in levels:
                request = ServeRequest("a", "b", scheme=scheme, level=level)
                chain = default_fallback_chain(create_estimator(scheme, level=level))
                labels = ["full"] + ["cached-coarse"] * (len(chain) - 2) + ["parametric"]
                for index, (rung, label) in enumerate(zip(chain, labels)):
                    down = {(r.name, r.level) for r in chain[:index]}
                    server.cache.resolve = _failing(resolve, down)
                    response = await server.submit(request)
                    assert response.provenance.rung == label
                    assert response.selectivity == rung.estimate(ds1, ds2)
                cold = chain[0].estimate(ds1, ds2)
                first = await fast.submit(request)
                replay = await fast.submit(request)
                assert (first.provenance.via, replay.provenance.via) == ("batch", "memo")
                assert first.selectivity == replay.selectivity == cold

    asyncio.run(go())
    assert server.cache.stats.derivations == 0


def _check_resilient_rungs(scheme, levels, ds1, ds2):
    cache = HistogramCache()
    for level in levels:
        chain = default_fallback_chain(create_estimator(scheme, level=level))
        for index, rung in enumerate(chain):
            resilient = ResilientEstimator(
                chain=(_Down(),) + chain[index:], cache=cache, retries=0
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", DegradedResultWarning)
                result = resilient.estimate_detailed(ds1, ds2)
            assert result.provenance.rung_index == 1
            assert result.selectivity == rung.estimate(ds1, ds2)
    assert cache.stats.derivations == 0


@settings(max_examples=30, deadline=None)
@given(
    scheme=st.sampled_from(SCHEMES),
    levels=st.lists(st.integers(1, 6), min_size=2, max_size=3, unique=True),
    seed=st.integers(0, 2**16),
    sizes=st.tuples(st.sampled_from((1, 40, 400)), st.sampled_from((30, 600))),
)
def test_every_tier_answers_equal_to_a_cold_estimate(scheme, levels, seed, sizes):
    levels = sorted(levels, reverse=True)  # finer first, then coarser
    ds1, ds2 = _pair(seed, *sizes)
    _check_cache_tiers(scheme, levels, ds1, ds2)
    _check_store_tier(scheme, levels, ds1, ds2)
    _check_serve_rungs(scheme, levels, ds1, ds2)
    _check_resilient_rungs(scheme, levels, ds1, ds2)
