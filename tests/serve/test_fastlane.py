"""The serve fast lane: tier-0 memo hits answered on the event loop."""

import asyncio

import numpy as np
import pytest

from repro.datasets import SpatialDataset
from repro.errors import ServiceOverloadError
from repro.geometry import Rect
from repro.serve import EstimationServer, ServeRequest, ServerConfig
from tests.conftest import random_rects
from tests.serve.conftest import FakeClock, unit_catalog


def serve_many(server, requests):
    async def go():
        async with server:
            results = []
            for request in requests:
                results.append(await server.submit(request))
            return results

    return asyncio.run(go())


def fresh_catalog(seed=7, n=300):
    rng = np.random.default_rng(seed)
    return {
        name: SpatialDataset(name, random_rects(rng, n), Rect.unit())
        for name in ("roads", "rivers", "parks")
    }


class TestFastLane:
    def test_warm_repeat_served_via_memo(self, catalog):
        server = EstimationServer(catalog)
        request = ServeRequest("roads", "rivers", level=5)
        cold, warm = serve_many(server, [request, request])
        assert cold.provenance.via == "batch"
        assert warm.provenance.via == "memo"
        assert warm.provenance.rung == "full"
        assert not warm.degraded
        assert warm.selectivity == cold.selectivity  # bit-identical replay
        assert server.stats()["memo"]["fast_hits"] == 1

    def test_warm_repeats_answer_in_under_a_millisecond_median(self):
        """500 requests cycling over four level-7 pairs of 2 000-rect
        datasets: after the four cold builds every answer is a memo hit,
        and the median in-server latency stays at or under 1 ms."""
        server = EstimationServer(unit_catalog(2000), ServerConfig(max_depth=64))
        pairs = (("roads", "rivers"), ("roads", "parks"), ("rivers", "rail"), ("parks", "rail"))
        requests = [ServeRequest(*pairs[i % 4], level=7) for i in range(500)]
        responses = serve_many(server, requests)
        assert [r.provenance.via for r in responses[4:]] == ["memo"] * 496
        assert np.median([r.latency_s for r in responses]) <= 1e-3

    def test_memo_hits_counted_in_ladder_and_stats(self, catalog):
        server = EstimationServer(catalog)
        request = ServeRequest("roads", "parks", level=4)
        serve_many(server, [request] * 4)
        stats = server.stats()
        assert stats["memo"]["fast_hits"] == 3
        assert stats["memo"]["entries"] >= 1
        assert stats["rungs"]["full"] == 4  # memo answers count as full-rung

    def test_distinct_requests_do_not_cross_talk(self, catalog):
        """(scheme, level) are part of the memo key: repeating three
        different questions warms three different entries, each
        replaying its own answer."""
        server = EstimationServer(catalog)
        requests = [
            ServeRequest("roads", "rivers", level=5),
            ServeRequest("roads", "rivers", level=4),
            ServeRequest("roads", "rivers", scheme="ph", level=5),
        ]
        responses = serve_many(server, requests + requests)
        cold, warm = responses[:3], responses[3:]
        assert [r.provenance.via for r in warm] == ["memo"] * 3
        assert [r.selectivity for r in warm] == [r.selectivity for r in cold]
        assert len({r.selectivity for r in cold}) == 3

    def test_mutation_invalidates_fast_lane(self):
        """A sanctioned mutation bumps the token; the next request takes
        the slow path and re-estimates against the new geometry."""
        catalog = fresh_catalog()
        server = EstimationServer(catalog)
        request = ServeRequest("roads", "rivers", level=5)

        async def go():
            async with server:
                cold = await server.submit(request)
                warm = await server.submit(request)
                roads = catalog["roads"]
                keep = len(roads) // 3
                roads.rects.xmin[keep:] = roads.rects.xmin[:1]
                roads.rects.xmax[keep:] = roads.rects.xmax[:1]
                roads.rects.ymin[keep:] = roads.rects.ymin[:1]
                roads.rects.ymax[keep:] = roads.rects.ymax[:1]
                roads.mark_mutated()
                after = await server.submit(request)
                return cold, warm, after

        cold, warm, after = asyncio.run(go())
        assert warm.provenance.via == "memo"
        assert after.provenance.via == "batch"  # fast lane declined
        assert after.selectivity != cold.selectivity

    def test_unknown_dataset_still_client_error(self, catalog):
        server = EstimationServer(catalog)
        with pytest.raises(ValueError, match="unknown dataset"):
            serve_many(server, [ServeRequest("roads", "nowhere")])

    def test_quota_charged_on_fast_lane(self, catalog):
        """Memo hits skip the queue but still bill the tenant bucket —
        the rate contract covers every answered request."""
        server = EstimationServer(
            catalog, ServerConfig(tenant_rate=0.001, tenant_burst=2.0)
        )
        clock = FakeClock()
        server.admission._clock = clock

        async def go():
            async with server:
                request = ServeRequest("roads", "rivers", level=4, tenant="t1")
                first = await server.submit(request)  # slow path, token 1
                second = await server.submit(request)  # fast lane, token 2
                with pytest.raises(ServiceOverloadError) as excinfo:
                    await server.submit(request)  # fast lane, bucket dry
                return first, second, excinfo.value

        first, second, error = asyncio.run(go())
        assert second.provenance.via == "memo"
        assert error.reason == "quota"
        assert server.admission.stats.rejected_quota == 1
        assert server.stats()["rungs"]["shed"] == 1

    def test_fast_lane_skips_queue_capacity(self, catalog):
        """A warm memo answers even when the bounded queue is saturated:
        depth-occupying slots guard executor capacity the fast lane
        never uses."""
        server = EstimationServer(catalog, ServerConfig(max_depth=1))
        request = ServeRequest("roads", "rivers", level=4)

        async def go():
            async with server:
                await server.submit(request)  # warm the memo
                server.admission._depth = 1  # saturate the queue by hand
                try:
                    return await server.submit(request)
                finally:
                    server.admission._depth = 0

        response = asyncio.run(go())
        assert response.provenance.via == "memo"
