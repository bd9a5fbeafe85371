"""The degradation ladder: pressure thresholds, and the shared fallback
chain that serve walks on pressure and on failure."""

import asyncio

import pytest

from repro.core.estimator import (
    GHEstimator,
    ParametricEstimator,
    PHEstimator,
    create_estimator,
)
from repro.errors import DegradedResultWarning
from repro.serve import (
    DegradationLadder,
    DegradePolicy,
    EstimationServer,
    ServeProvenance,
    ServeRequest,
    ServerConfig,
    ServiceRung,
)
from repro.service import ResilientEstimator, default_fallback_chain


def pressure_server(catalog, policy, **kwargs):
    """A two-slot server: a request admitted behind one peer sees 0.5."""
    return EstimationServer(
        catalog, ServerConfig(max_depth=2, policy=policy), **kwargs
    )


def serve_behind_a_peer(server, request):
    """Serve ``request`` while one cheap peer holds the other queue slot."""

    async def go():
        async with server:
            _, response = await asyncio.gather(
                server.submit(ServeRequest("parks", "parks", level=0)),
                server.submit(request),
            )
            return response

    return asyncio.run(go())


#: At pressure 0.5 these policies start at ``cached-coarse`` (chain index
#: 1) and at ``parametric`` (the chain's floor) respectively.
START_COARSE = DegradePolicy(cached_at=0.4, parametric_at=0.6, shed_at=0.9)
START_FLOOR = DegradePolicy(cached_at=0.3, parametric_at=0.4, shed_at=0.9)


def broken_runner(queries, deadline_s):
    raise OSError("estimator tier is down")


def failing_for(resolve, schemes):
    """Wrap a cache ``resolve`` so builds of ``schemes`` fail."""

    def resolve_or_fail(dataset, scheme="gh", level=7, **kwargs):
        if scheme in schemes:
            raise RuntimeError(f"{scheme} build down")
        return resolve(dataset, scheme, level, **kwargs)

    return resolve_or_fail


def serve_one(server, request):
    async def go():
        async with server:
            return await server.submit(request)

    return asyncio.run(go())


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


class TestSharedLadder:
    """Serve walks :func:`default_fallback_chain` — the same rungs the
    resilient wrapper walks — on pressure and on failure."""

    @pytest.mark.parametrize("level", [0, 1, 4, 7, 12])
    @pytest.mark.parametrize("scheme", ["gh", "ph", "gh_basic"])
    def test_pressure_rungs_are_chain_rungs(self, catalog, scheme, level):
        ds1, ds2 = catalog["roads"], catalog["rivers"]
        request = ServeRequest("roads", "rivers", scheme=scheme, level=level)
        chain = default_fallback_chain(create_estimator(scheme, level=level))

        coarse = serve_behind_a_peer(pressure_server(catalog, START_COARSE), request)
        assert coarse.selectivity == chain[1].estimate(ds1, ds2)
        assert coarse.provenance.rung == (
            "parametric" if len(chain) == 2 else "cached-coarse"
        )
        assert coarse.degraded

        floor = serve_behind_a_peer(pressure_server(catalog, START_FLOOR), request)
        assert floor.selectivity == chain[-1].estimate(ds1, ds2)
        assert floor.provenance.rung == "parametric"
        assert floor.degraded


class TestDescent:
    """Failures move one rung down the requested estimator's chain."""

    def test_descent_order_and_floor(self, catalog):
        """Knock GH(7)'s rungs out one class at a time: GH(4), then
        PH(4) — as in the resilient wrapper's chain — then the floor."""
        ds1, ds2 = catalog["roads"], catalog["rivers"]
        chain = default_fallback_chain(create_estimator("gh", level=7))
        outages = [set(), {"gh"}, {"gh", "ph"}]
        for rung, down in zip(chain[1:], outages):
            server = EstimationServer(catalog, batch_runner=broken_runner)
            server.cache.resolve = failing_for(server.cache.resolve, down)
            response = serve_one(server, ServeRequest("roads", "rivers", level=7))
            assert response.selectivity == rung.estimate(ds1, ds2)
            assert response.degraded
            # The reason is the first failure, not the last.
            assert response.provenance.reason == (
                "gh(level=7) error: OSError: estimator tier is down"
            )
            expected = "parametric" if rung is chain[-1] else "cached-coarse"
            assert server.ladder.stats.snapshot() == {
                "full": 0, "cached-coarse": 0, "parametric": 0, "shed": 0,
                expected: 1,
            }
        assert chain[2].estimate(ds1, ds2) == PHEstimator(level=4).estimate(ds1, ds2)

    def test_descent_never_sheds(self, catalog):
        """From every pressure-selected start, with every rung above the
        floor failing, the walk answers at the closed form and no
        descent is recorded as a shed."""
        ds1, ds2 = catalog["roads"], catalog["rivers"]
        for policy in (DegradePolicy(), START_COARSE, START_FLOOR):
            server = pressure_server(catalog, policy, batch_runner=broken_runner)
            server.cache.resolve = failing_for(server.cache.resolve, {"gh", "ph"})
            response = serve_behind_a_peer(
                server, ServeRequest("roads", "rivers", level=7)
            )
            assert response.provenance.rung == "parametric"
            assert response.selectivity == ParametricEstimator().estimate(ds1, ds2)
            counts = server.ladder.stats.snapshot()
            assert counts["shed"] == 0
            assert counts["parametric"] == 2  # the peer walked down too


class TestOneWalker:
    """Both front doors descend through one :class:`Descent`, so one
    failure reads the same whichever door it came through."""

    def test_same_failure_same_reason_on_both_doors(self, catalog):
        ds1, ds2 = catalog["roads"], catalog["rivers"]
        chain = default_fallback_chain(create_estimator("gh", level=7))

        class DownGH(GHEstimator):
            def estimate(self, a, b):
                raise OSError("estimator tier is down")

        resilient = ResilientEstimator(
            chain[0], chain=(DownGH(level=7),) + chain[1:], retries=0
        )
        with pytest.warns(DegradedResultWarning):
            direct = resilient.estimate_detailed(ds1, ds2).provenance
        server = EstimationServer(catalog, batch_runner=broken_runner)
        served = serve_one(server, ServeRequest("roads", "rivers", level=7)).provenance

        assert served.reason == direct.reason == (
            "gh(level=7) error: OSError: estimator tier is down"
        )
        steps = [(a.rung, a.outcome) for a in served.attempts]
        assert steps == [(a.rung, a.outcome) for a in direct.attempts]
        assert steps == [("gh(level=7)", "error"), ("gh(level=4)", "ok")]

    def test_memo_hit_runs_no_rung(self, catalog):
        server = EstimationServer(catalog)
        request = ServeRequest("roads", "rivers", level=5)

        async def twice():
            async with server:
                return await server.submit(request), await server.submit(request)

        first, repeat = asyncio.run(twice())
        assert [(a.rung, a.outcome) for a in first.provenance.attempts] == [
            ("gh(level=5)", "ok")
        ]
        assert repeat.provenance.via == "memo"
        assert repeat.provenance.attempts == ()


class TestAccounting:
    def test_record_and_snapshot(self):
        ladder = DegradationLadder()
        ladder.record(ServiceRung.FULL)
        ladder.record(ServiceRung.FULL)
        ladder.record(ServiceRung.SHED)
        assert ladder.stats.snapshot() == {
            "full": 2, "cached-coarse": 0, "parametric": 0, "shed": 1,
        }


class TestProvenance:
    def test_provenance_is_frozen(self):
        prov = ServeProvenance(
            rung="full", requested="gh(level=7)", degraded=False, pressure=0.1
        )
        with pytest.raises(AttributeError):
            prov.rung = "shed"
