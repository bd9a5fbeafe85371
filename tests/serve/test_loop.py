"""EstimationServer: the admission → rung → descent pipeline end to end."""

import asyncio

import pytest

from repro.errors import EstimatorUnavailable, ServiceOverloadError
from repro.histograms import GHHistogram
from repro.serve import (
    DegradePolicy,
    EstimationServer,
    ServeRequest,
    ServerConfig,
)


def serve_one(server, request):
    async def go():
        async with server:
            return await server.submit(request)

    return asyncio.run(go())


class TestHealthyPath:
    def test_full_rung_matches_direct_estimation(self, catalog):
        ds1, ds2 = catalog["roads"], catalog["rivers"]
        expected = GHHistogram.build(ds1, 5).estimate_selectivity(
            GHHistogram.build(ds2, 5)
        )
        server = EstimationServer(catalog)
        response = serve_one(server, ServeRequest("roads", "rivers", level=5))
        assert response.selectivity == pytest.approx(expected, rel=0, abs=0)
        assert response.provenance.rung == "full"
        assert response.provenance.via == "batch"
        assert not response.degraded
        assert response.provenance.reason == ""
        assert response.latency_s >= 0.0

    def test_concurrent_requests_coalesce(self, catalog):
        server = EstimationServer(catalog)

        async def go():
            async with server:
                return await asyncio.gather(
                    *[server.submit(ServeRequest("roads", "parks", level=4))
                      for _ in range(6)]
                )

        responses = asyncio.run(go())
        values = {r.selectivity for r in responses}
        assert len(values) == 1  # identical queries, identical answers
        assert server.batcher.stats.coalesced > 0

    def test_catalog_accepts_iterables(self, catalog):
        server = EstimationServer(list(catalog.values()))
        assert sorted(server.catalog) == ["parks", "rivers", "roads"]


class TestPressureDegradation:
    def test_rungs_cheapen_as_the_queue_fills(self, catalog):
        config = ServerConfig(
            max_depth=4,
            policy=DegradePolicy(cached_at=0.2, parametric_at=0.5, shed_at=0.75),
        )
        server = EstimationServer(catalog, config)

        async def go():
            async with server:
                return await asyncio.gather(
                    *[server.submit(ServeRequest("roads", "rivers")) for _ in range(4)],
                    return_exceptions=True,
                )

        outcomes = asyncio.run(go())
        # Admission is synchronous and in task order, and each request
        # measures the pressure of its *peers* (its own slot excluded),
        # so the pressures seen are 0.0, 0.25, 0.5, 0.75 — one per rung.
        assert outcomes[0].provenance.rung == "full"
        assert outcomes[1].provenance.rung == "cached-coarse"
        assert outcomes[1].degraded
        assert "pressure" in outcomes[1].provenance.reason
        assert outcomes[2].provenance.rung == "parametric"
        assert isinstance(outcomes[3], ServiceOverloadError)
        assert outcomes[3].reason == "shed"
        assert server.ladder.stats.snapshot()["shed"] == 1

    def test_cached_rung_coarsens_by_policy(self, catalog):
        # max_depth=2: the second concurrent request sees one peer ahead
        # of it, i.e. pressure 0.5 >= cached_at.
        config = ServerConfig(
            max_depth=2,
            policy=DegradePolicy(cached_at=0.4),
        )
        server = EstimationServer(catalog, config)

        async def go():
            async with server:
                return await asyncio.gather(
                    server.submit(ServeRequest("roads", "rivers", level=7)),
                    server.submit(ServeRequest("roads", "rivers", level=7)),
                )

        first, second = asyncio.run(go())
        assert second.provenance.rung == "cached-coarse"
        assert second.provenance.requested == "gh(level=7)"
        # The coarse answer equals a direct level-4 estimate, bit for bit.
        ds1, ds2 = catalog["roads"], catalog["rivers"]
        coarse = GHHistogram.build(ds1, 4).estimate_selectivity(
            GHHistogram.build(ds2, 4)
        )
        assert second.selectivity == coarse

    def test_depth_one_server_still_answers(self, catalog):
        # Regression: when pressure counted the request's own slot,
        # max_depth=1 made every admitted request see 1.0 >= shed_at
        # and the server could never answer anything.
        server = EstimationServer(catalog, ServerConfig(max_depth=1))
        response = serve_one(server, ServeRequest("roads", "rivers", level=5))
        assert response.provenance.rung == "full"
        assert not response.degraded

    def test_queue_full_rejection_counts_as_shed(self, catalog):
        server = EstimationServer(catalog, ServerConfig(max_depth=1))

        async def go():
            async with server:
                return await asyncio.gather(
                    server.submit(ServeRequest("roads", "rivers")),
                    server.submit(ServeRequest("roads", "rivers")),
                    server.submit(ServeRequest("roads", "rivers")),
                    return_exceptions=True,
                )

        outcomes = asyncio.run(go())
        sheds = [o for o in outcomes if isinstance(o, ServiceOverloadError)]
        assert sheds and all(o.reason in ("queue-full", "shed") for o in sheds)
        assert server.admission.stats.rejected + server.ladder.stats.snapshot()[
            "shed"
        ] >= len(sheds)


class TestFailureDescent:
    def test_full_failure_descends_to_cached(self, catalog):
        def broken_runner(queries, deadline_s):
            raise OSError("estimator tier is down")

        server = EstimationServer(catalog, batch_runner=broken_runner)
        response = serve_one(server, ServeRequest("roads", "rivers", level=6))
        assert response.provenance.rung == "cached-coarse"
        assert response.degraded
        assert "OSError" in response.provenance.reason
        # The answer is still a real estimate, not a guess.
        ds1, ds2 = catalog["roads"], catalog["rivers"]
        coarse = GHHistogram.build(ds1, 3).estimate_selectivity(
            GHHistogram.build(ds2, 3)
        )
        assert response.selectivity == coarse

    def test_zero_deadline_falls_to_the_parametric_floor(self, catalog):
        server = EstimationServer(catalog)
        response = serve_one(
            server, ServeRequest("roads", "rivers", timeout_s=0.0)
        )
        assert response.provenance.rung == "parametric"
        assert response.degraded
        assert "EstimationTimeout" in response.provenance.reason
        assert response.selectivity > 0.0

    def test_unknown_dataset_fails_the_request_not_the_ladder(self, catalog):
        server = EstimationServer(catalog)
        with pytest.raises(ValueError, match="unknown dataset"):
            serve_one(server, ServeRequest("roads", "oceans"))
        # Nothing was recorded as answered: the ladder never ran.
        assert sum(server.ladder.stats.snapshot().values()) == 0
        assert server.admission.depth == 0  # the ticket was released

    @pytest.mark.parametrize(
        "request_",
        [
            ServeRequest("roads", "rivers", level=13),
            ServeRequest("roads", "rivers", level=-2),
            ServeRequest("roads", "rivers", scheme="bogus"),
        ],
        ids=["level-13", "level-minus-2", "unknown-scheme"],
    )
    def test_bad_scheme_or_level_fails_at_the_front_door(self, catalog, request_):
        server = EstimationServer(catalog)
        with pytest.raises(ValueError, match="scheme|level"):
            serve_one(server, request_)
        # A client error is not degraded: no rung answered or shed.
        assert sum(server.ladder.stats.snapshot().values()) == 0
        assert server.admission.depth == 0

    def test_descent_failure_does_not_leak_queue_slots(self, catalog):
        def broken_runner(queries, deadline_s):
            raise OSError("down")

        server = EstimationServer(catalog, batch_runner=broken_runner)

        async def go():
            async with server:
                for _ in range(3):
                    await server.submit(ServeRequest("roads", "rivers"))

        asyncio.run(go())
        assert server.admission.depth == 0


class TestTenancyAndLifecycle:
    def test_tenant_quota_enforced_through_submit(self, catalog):
        server = EstimationServer(
            catalog, ServerConfig(tenant_rate=0.001, tenant_burst=1.0)
        )

        async def go():
            async with server:
                await server.submit(ServeRequest("roads", "rivers", tenant="t1"))
                with pytest.raises(ServiceOverloadError) as exc_info:
                    await server.submit(ServeRequest("roads", "rivers", tenant="t1"))
                assert exc_info.value.reason == "quota"
                # Another tenant is unaffected.
                await server.submit(ServeRequest("roads", "rivers", tenant="t2"))

        asyncio.run(go())

    def test_closed_server_rejects_submissions(self, catalog):
        server = EstimationServer(catalog)

        async def go():
            await server.aclose()
            with pytest.raises(EstimatorUnavailable):
                await server.submit(ServeRequest("roads", "rivers"))

        asyncio.run(go())

    def test_empty_catalog_rejected(self):
        with pytest.raises(ValueError):
            EstimationServer({})

    def test_stats_cover_every_stage(self, catalog):
        server = EstimationServer(catalog)
        serve_one(server, ServeRequest("roads", "rivers"))
        snap = server.stats()
        for key in ("admission", "rungs", "batcher", "cache", "pressure"):
            assert key in snap
        assert snap["rungs"]["full"] == 1
