"""Deterministic chaos tests for the serving front door.

The acceptance bar (ISSUE 6): under injected faults — shard workers
killed mid-batch, deadline storms, poison queries — the server must
**never hang**, **never return a wrong-but-confident answer** (every
degraded answer says so in its provenance), and must **recover within a
bounded number of requests** once the faults stop.

All tests run under ``pytest -m chaos`` in CI.  Faults are injected
through explicit hooks (worker hook factories, broken batch runners,
zero deadlines), never through timing races, so every run reproduces.
"""

import asyncio
from multiprocessing import Value

import pytest

from repro.errors import ServiceOverloadError
from repro.histograms import GHHistogram
from repro.serve import (
    DegradePolicy,
    EstimationServer,
    ServeRequest,
    ServerConfig,
    ShardPool,
)

pytestmark = pytest.mark.chaos

#: Every chaos scenario must finish well inside this bound (no-hang bar).
SCENARIO_TIMEOUT_S = 60.0


def run_bounded(coro):
    """Run a scenario with a hard timeout: a hang fails, never blocks CI."""

    async def bounded():
        return await asyncio.wait_for(coro, timeout=SCENARIO_TIMEOUT_S)

    return asyncio.run(bounded())


def crash_n_builds_factory(n):
    """A worker hook that hard-kills the worker for the first ``n`` builds
    (counted across restarts via shared memory), then heals."""
    crashes = Value("i", 0)

    def factory():
        import os

        class Hook:
            def on_checkpoint(self, stage):
                # No get_lock(): dying while holding the shared lock would
                # deadlock the replacement worker; one worker per shard
                # makes the bare read safe.
                if crashes.value < n:
                    crashes.value += 1
                    os._exit(17)

            def on_mutate(self, stage, value):
                return value

        return Hook()

    return factory


class TestShardKillsMidBatch:
    def test_crash_storm_degrades_then_recovers(self, catalog):
        """Workers die mid-build; answers degrade with honest provenance;
        once the crashes stop, full-quality service resumes."""
        pool = ShardPool(
            catalog,
            1,
            max_restarts=10,
            failure_threshold=3,
            cooldown_s=0.01,
            worker_hook_factory=crash_n_builds_factory(2),
        )
        with pool:
            server = EstimationServer(catalog, shard_pool=pool)

            async def scenario():
                async with server:
                    degraded, recovered = [], None
                    for attempt in range(10):
                        response = await server.submit(
                            ServeRequest("roads", "rivers", level=5)
                        )
                        if response.provenance.rung == "full":
                            recovered = (attempt, response)
                            break
                        degraded.append(response)
                    return degraded, recovered

            degraded, recovered = run_bounded(scenario())
        # While crashing, every answer admitted to being degraded.
        assert degraded, "the first requests must hit the crashing worker"
        for response in degraded:
            assert response.degraded
            assert "ShardUnavailableError" in response.provenance.reason
            assert response.provenance.rung in ("cached-coarse", "parametric")
        # Bounded recovery: full quality within the 10-request budget,
        # and the recovered answer is bit-identical to a local build.
        assert recovered is not None, "service never recovered full quality"
        expected = GHHistogram.build(catalog["roads"], 5).estimate_selectivity(
            GHHistogram.build(catalog["rivers"], 5)
        )
        assert recovered[1].selectivity == expected
        assert pool.stats()["restarts"] >= 1

    def test_breaker_limits_restart_churn(self, catalog):
        """A crash-looping worker must not be restarted on every request:
        the breaker fails fast between restart attempts."""
        pool = ShardPool(
            catalog,
            1,
            max_restarts=10,
            failure_threshold=1,
            cooldown_s=30.0,  # long cooldown: everything after the first
            max_cooldown_s=120.0,
            worker_hook_factory=crash_n_builds_factory(99),
        )
        with pool:
            server = EstimationServer(catalog, shard_pool=pool)

            async def scenario():
                async with server:
                    responses = []
                    for _ in range(8):
                        responses.append(
                            await server.submit(ServeRequest("roads", "rivers"))
                        )
                    return responses

            responses = run_bounded(scenario())
            # All eight answered (degraded), but at most two restarts were
            # attempted: the initial crash plus maybe one half-open trial.
            assert all(r.degraded for r in responses)
            assert pool.stats()["restarts"] <= 2
            assert pool.stats()["breaker_opens"] >= 1


class TestDeadlineStorm:
    def test_zero_budget_storm_answers_fast_and_honestly(self, catalog):
        """A burst of already-expired deadlines: every request resolves
        (parametric floor or typed error) without touching slow paths."""
        server = EstimationServer(catalog, ServerConfig(max_depth=64))

        async def scenario():
            async with server:
                return await asyncio.gather(
                    *[
                        server.submit(
                            ServeRequest("roads", "rivers", timeout_s=0.0)
                        )
                        for _ in range(32)
                    ],
                    return_exceptions=True,
                )

        outcomes = run_bounded(scenario())
        assert len(outcomes) == 32
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                assert isinstance(outcome, ServiceOverloadError)
            else:
                assert outcome.provenance.rung == "parametric"
                assert outcome.degraded
                assert "EstimationTimeout" in outcome.provenance.reason

    def test_storm_does_not_poison_later_requests(self, catalog):
        server = EstimationServer(catalog)

        async def scenario():
            async with server:
                await asyncio.gather(
                    *[
                        server.submit(ServeRequest("roads", "parks", timeout_s=0.0))
                        for _ in range(16)
                    ],
                    return_exceptions=True,
                )
                return await server.submit(ServeRequest("roads", "parks", level=5))

        response = run_bounded(scenario())
        assert response.provenance.rung == "full"
        assert not response.degraded


class TestPoisonQueries:
    def test_poison_batchmate_does_not_contaminate_answers(self, catalog):
        """One query whose runner call always fails shares a batch with
        healthy queries: the healthy ones answer correctly, the poison
        one raises, nobody gets a wrong value."""
        calls = {"batch": 0}

        def poison_runner(queries, deadline_s):
            calls["batch"] += 1
            if any(q.level == 6 for q in queries):
                raise ValueError("cursed histogram level")
            from repro.perf.batch import estimate_many

            return estimate_many(queries)

        server = EstimationServer(
            catalog,
            ServerConfig(
                max_delay_s=0.02,
                policy=DegradePolicy(
                    cached_at=0.97, parametric_at=0.98, shed_at=0.99
                ),
            ),
            batch_runner=poison_runner,
        )

        async def scenario():
            async with server:
                return await asyncio.gather(
                    server.submit(ServeRequest("roads", "rivers", level=5)),
                    server.submit(ServeRequest("roads", "rivers", level=6)),
                    server.submit(ServeRequest("roads", "parks", level=5)),
                    return_exceptions=True,
                )

        good1, poisoned, good2 = run_bounded(scenario())
        expected = GHHistogram.build(catalog["roads"], 5).estimate_selectivity(
            GHHistogram.build(catalog["rivers"], 5)
        )
        assert good1.selectivity == expected
        assert good2.provenance.rung in ("full", "cached-coarse", "parametric")
        # The poison query descended the ladder and still answered —
        # degraded, with the original failure named in its provenance.
        assert poisoned.degraded
        assert "ValueError" in poisoned.provenance.reason
        assert server.batcher.stats.batch_failures >= 1

    def test_mismatched_extent_pair_fails_itself_only(self, rng, catalog):
        """A structurally invalid pair (different extents) is a client
        error: it raises for that request and leaves the server healthy."""
        from repro.datasets import SpatialDataset
        from repro.geometry import Rect
        from tests.conftest import random_rects

        bad_extent = Rect(0.0, 0.0, 2.0, 2.0)
        weird = SpatialDataset(
            "weird", random_rects(rng, 50, extent=bad_extent), bad_extent
        )
        full_catalog = dict(catalog)
        full_catalog["weird"] = weird
        server = EstimationServer(full_catalog, ServerConfig(max_delay_s=0.01))

        async def scenario():
            async with server:
                return await asyncio.gather(
                    server.submit(ServeRequest("roads", "weird")),
                    server.submit(ServeRequest("roads", "rivers", level=5)),
                    return_exceptions=True,
                )

        bad, good = run_bounded(scenario())
        assert isinstance(bad, ValueError)  # extent mismatch surfaces typed
        assert not isinstance(good, BaseException)
        assert good.selectivity >= 0.0
        assert server.admission.depth == 0  # no leaked queue slots


class TestNoWrongButConfident:
    def test_every_non_full_answer_is_marked_degraded(self, catalog):
        """Property over a mixed fault scenario: any response whose rung
        is not ``full`` (or whose path saw a failure) carries
        ``degraded=True`` — the invariant monitoring relies on."""
        def broken_for_level_nine(queries, deadline_s):
            # Fails in both the fused batch AND the solo retry, so the
            # failure genuinely reaches the ladder (a transient flake
            # would be absorbed by the batcher's poison isolation).
            if any(q.level == 9 for q in queries):
                raise OSError("level-9 tier down")
            from repro.perf.batch import estimate_many

            return estimate_many(queries)

        server = EstimationServer(
            catalog,
            ServerConfig(max_delay_s=0.001),
            batch_runner=broken_for_level_nine,
        )

        async def scenario():
            async with server:
                out = []
                for i in range(8):
                    out.append(
                        await server.submit(
                            ServeRequest("roads", "rivers", level=9 if i % 2 else 5)
                        )
                    )
                return out

        responses = run_bounded(scenario())
        for response in responses:
            if response.provenance.rung != "full":
                assert response.degraded
            if response.provenance.reason:
                assert response.degraded
        # Both sides of the flake pattern occurred.
        rungs = {r.provenance.rung for r in responses}
        assert "full" in rungs and len(rungs) > 1
