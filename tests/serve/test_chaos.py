"""Deterministic chaos tests for the serving front door.

The acceptance bar: under injected faults — a failing batch runner,
deadline storms, poison queries — the server must
**never hang**, **never return a wrong-but-confident answer** (every
degraded answer says so in its provenance), and must **recover within a
bounded number of requests** once the faults stop.

All tests run under ``pytest -m chaos`` in CI.  Faults are injected
through explicit hooks (broken batch runners, zero deadlines), never
through timing races, so every run reproduces.
"""

import asyncio
import threading

import numpy as np
import pytest

from repro.core.estimator import GHEstimator, ParametricEstimator
from repro.errors import EstimationTimeout, ServiceOverloadError
from repro.histograms import GHHistogram
from repro.serve import (
    DegradePolicy,
    EstimationServer,
    ServeRequest,
    ServerConfig,
)
from repro.service import default_fallback_chain
from tests.serve.conftest import SCENARIO_TIMEOUT_S, run_bounded, unit_catalog

pytestmark = pytest.mark.chaos

class FailFirstBatches:
    """Batch runner that raises on its first ``n`` calls, then heals.

    A call is one fused batch or one solo retry; once healed it
    delegates to the server's default runner.
    """

    def __init__(self, n):
        self.n = n
        self.calls = 0
        self.delegate = None

    def __call__(self, queries, budget_s):
        self.calls += 1
        if self.calls <= self.n:
            raise OSError(f"injected batch fault {self.calls}/{self.n}")
        return self.delegate(queries, budget_s)


class TestBatchFailureStorm:
    @pytest.mark.parametrize("failures", [2, 4])
    def test_failure_storm_degrades_then_recovers(self, catalog, failures):
        """The batch runner fails, then heals: answers degrade with
        honest provenance, then full-quality service resumes."""
        runner = FailFirstBatches(failures)
        server = EstimationServer(catalog, batch_runner=runner)
        runner.delegate = server._default_runner
        level = 5

        async def scenario():
            async with server:
                degraded, recovered = [], None
                for _ in range(10):
                    response = await server.submit(
                        ServeRequest("roads", "rivers", level=level)
                    )
                    if response.provenance.rung == "full":
                        recovered = response
                        break
                    degraded.append(response)
                return degraded, recovered

        degraded, recovered = run_bounded(scenario())
        # Each failed request spent a fused batch and its solo retry.
        assert len(degraded) == failures // 2
        for response in degraded:
            assert response.degraded
            assert "OSError" in response.provenance.reason
            assert response.provenance.rung in ("cached-coarse", "parametric")
        assert recovered is not None, "service never recovered full quality"
        assert not recovered.degraded
        expected = GHEstimator(level).estimate(catalog["roads"], catalog["rivers"])
        assert recovered.selectivity == expected
        assert server.admission.depth == 0
        assert server.stats()["batcher"]["batch_failures"] >= 1


async def open_loop(server, requests, *, rate_qps, duration_s):
    """Fire ``requests`` round-robin on a fixed arrival schedule, whether
    or not earlier ones have answered, then gather every outcome."""
    loop = asyncio.get_running_loop()
    started = loop.time()
    tasks = []
    for i in range(int(rate_qps * duration_s)):
        delay = started + i / rate_qps - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(loop.create_task(server.submit(requests[i % len(requests)])))
    return await asyncio.gather(*tasks, return_exceptions=True)


class TestOverload:
    #: Answered-tail cap: the claim is "no latency collapse", not an SLO.
    P99_CAP_S = 2.0

    def test_open_loop_overload_sheds_typed_and_bounds_the_queue(self):
        """1000 q/s for 0.5 s of level-9 requests against an 8-deep queue
        with no memo and a 1-byte cache, so every request is a fresh build:
        the server must refuse explicitly rather than queue or collapse.

        The self-clocked batcher answers fast enough that 500 q/s often
        never fills the queue (0-1 sheds per run on a 2-CPU host), so the
        rate is 1000 q/s: 12-70 sheds per run there."""
        server = EstimationServer(
            unit_catalog(300),
            ServerConfig(max_depth=8, cache_bytes=1, memo_entries=0),
        )
        requests = [
            ServeRequest(a, b, level=9)
            for a, b in (("roads", "rivers"), ("roads", "parks"), ("rivers", "rail"), ("parks", "rail"))
        ]

        async def scenario():
            async with server:
                return await open_loop(server, requests, rate_qps=1000.0, duration_s=0.5)

        outcomes = run_bounded(scenario())
        assert len(outcomes) == 500
        errors = [o for o in outcomes if isinstance(o, BaseException)]
        assert all(isinstance(e, (ServiceOverloadError, EstimationTimeout)) for e in errors)
        sheds = [e for e in errors if isinstance(e, ServiceOverloadError)]
        assert sheds
        assert {e.reason for e in sheds} <= {"queue-full", "shed", "quota"}
        assert server.admission.stats.high_water <= server.admission.max_depth == 8
        answered = [o.latency_s for o in outcomes if not isinstance(o, BaseException)]
        if answered:
            assert np.quantile(answered, 0.99) <= self.P99_CAP_S


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
        error: it raises for that request at the front door — no batch
        failure, no rung, even when one side is empty — and leaves the
        server healthy."""
        from repro.datasets import SpatialDataset
        from repro.geometry import Rect, RectArray
        from tests.conftest import random_rects

        bad_extent = Rect(0.0, 0.0, 2.0, 2.0)
        full_catalog = dict(catalog)
        full_catalog["weird"] = SpatialDataset(
            "weird", random_rects(rng, 50, extent=bad_extent), bad_extent
        )
        full_catalog["void"] = SpatialDataset("void", RectArray.empty(), bad_extent)
        server = EstimationServer(full_catalog)

        async def scenario():
            async with server:
                return await asyncio.gather(
                    server.submit(ServeRequest("roads", "weird")),
                    server.submit(ServeRequest("roads", "void")),
                    server.submit(ServeRequest("roads", "rivers", level=5)),
                    return_exceptions=True,
                )

        bad, void, good = run_bounded(scenario())
        for error in (bad, void):
            assert isinstance(error, ValueError)  # extent mismatch surfaces typed
            assert "common extent" in str(error)
        assert not isinstance(good, BaseException)
        assert good.selectivity >= 0.0
        assert server.batcher.stats.batch_failures == 0
        assert server.ladder.stats.snapshot() == {
            "full": 1, "cached-coarse": 0, "parametric": 0, "shed": 0,
        }
        assert server.admission.depth == 0  # no leaked queue slots


class TestCancellation:
    def test_cancelled_submit_runs_no_lower_rung(self, catalog):
        """Cancelling a request that waits on the batcher cancels it: no
        rung below the batcher runs, nothing is recorded as answered, and
        the admission slot comes back."""
        started, release = threading.Event(), threading.Event()

        def stalled_runner(queries, budget_s):
            started.set()
            release.wait(SCENARIO_TIMEOUT_S)
            return [0.5] * len(queries)

        server = EstimationServer(catalog, batch_runner=stalled_runner)

        async def scenario():
            async with server:
                task = asyncio.ensure_future(
                    server.submit(ServeRequest("roads", "rivers", level=5))
                )
                while not started.is_set():
                    await asyncio.sleep(0.001)
                task.cancel()
                try:
                    with pytest.raises(asyncio.CancelledError):
                        await task
                finally:
                    release.set()

        run_bounded(scenario())
        assert server.ladder.stats.snapshot() == {
            "full": 0, "cached-coarse": 0, "parametric": 0, "shed": 0,
        }
        assert server.admission.depth == 0


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

        server = EstimationServer(catalog, batch_runner=broken_for_level_nine)

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


class TestInvalidResults:
    """A non-finite or negative value from any rung is a rung failure:
    the request descends, and its provenance says why."""

    BAD_VALUES = [float("nan"), float("inf"), -0.5]

    @pytest.mark.parametrize("bad", BAD_VALUES, ids=["nan", "inf", "negative"])
    def test_bad_batch_value_descends(self, catalog, bad):
        server = EstimationServer(catalog, batch_runner=lambda queries, _: [bad] * len(queries))

        async def scenario():
            async with server:
                return await server.submit(ServeRequest("roads", "rivers", level=5))

        response = run_bounded(scenario())
        assert response.provenance.rung == "cached-coarse"
        assert response.degraded
        assert "rung gh(level=5) produced" in response.provenance.reason
        assert np.isfinite(response.selectivity) and response.selectivity >= 0.0

    @pytest.mark.parametrize("bad", BAD_VALUES, ids=["nan", "inf", "negative"])
    def test_bad_lower_rung_value_descends(self, catalog, bad):
        """Pressure starts the request on the coarse rung, every histogram
        rung answers ``bad``, and the closed-form floor answers."""
        server = EstimationServer(
            catalog,
            ServerConfig(
                max_depth=2,
                policy=DegradePolicy(cached_at=0.4, parametric_at=0.6, shed_at=0.9),
            ),
        )
        fallback = server._fallback

        def bad_histogram_rungs(rung, ds1, ds2, deadline):
            if isinstance(rung, ParametricEstimator):
                return fallback(rung, ds1, ds2, deadline)
            return bad, "local"

        server._fallback = bad_histogram_rungs

        async def scenario():
            async with server:
                _, response = await asyncio.gather(
                    server.submit(ServeRequest("parks", "parks", level=0)),
                    server.submit(ServeRequest("roads", "rivers", level=5)),
                )
                return response

        response = run_bounded(scenario())
        assert response.provenance.rung == "parametric"
        assert response.degraded
        coarse = default_fallback_chain(GHEstimator(level=5))[1]
        assert f"rung gh(level={coarse.level}) produced" in response.provenance.reason
        expected = ParametricEstimator().estimate(catalog["roads"], catalog["rivers"])
        assert response.selectivity == expected
