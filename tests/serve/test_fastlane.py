"""The serve fast lane: tier-0 memo hits answered on the event loop."""

import asyncio
import threading

import numpy as np
import pytest

from repro.datasets import SpatialDataset
from repro.errors import ServiceOverloadError
from repro.geometry import Rect, RectArray
from repro.histograms import GHHistogram, apply_updates
from repro.perf import HistogramCache
from repro.serve import EstimationServer, ServeRequest, ServerConfig
from repro.store import ArtifactCatalog
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


class CountingLock:
    """A lock that counts its acquisitions."""

    def __init__(self, lock) -> None:
        self._lock = lock
        self.acquisitions = 0

    def acquire(self, *args, **kwargs) -> bool:
        self.acquisitions += 1
        return self._lock.acquire(*args, **kwargs)

    def release(self) -> None:
        self._lock.release()

    def __enter__(self) -> "CountingLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


def count_locks(*owners) -> "list[CountingLock]":
    """Replace every lock the ``owners`` hold by a counting wrapper; a
    lock two owners share gets one wrapper."""
    wrappers: "dict[int, CountingLock]" = {}
    for owner in owners:
        for name, value in list(vars(owner).items()):
            if isinstance(value, type(threading.Lock())):
                wrapper = wrappers.setdefault(id(value), CountingLock(value))
                setattr(owner, name, wrapper)
    return list(wrappers.values())


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

    def test_a_hit_takes_at_most_two_lock_round_trips(self, catalog):
        """One fast-lane hit acquires the memo tier's lock (its counters
        share it) and the ladder's (the server's ``fast_hits`` share it).
        Counting acquisitions, not time, holds on one CPU."""
        server = EstimationServer(catalog)
        request = ServeRequest("roads", "rivers", level=4)

        async def go():
            async with server:
                await server.submit(request)  # warm the memo
                locks = count_locks(
                    server.memo, server.memo.stats, server._counters,
                    server.ladder.stats, server.admission.stats,
                )
                hit = await server.submit(request)
                return hit, sum(lock.acquisitions for lock in locks)

        hit, acquisitions = asyncio.run(go())
        assert hit.provenance.via == "memo"
        assert acquisitions <= 2
        assert server.memo.stats.lock is server.memo._lock
        assert server._counters.lock is server.ladder.stats.lock
        stats = server.stats()
        assert stats["memo"]["fast_hits"] == 1
        assert stats["memo"]["hits"] == 1
        assert stats["rungs"]["full"] == 2

    def test_memo_provenance_is_built_once_per_depth(self, catalog):
        server = EstimationServer(catalog, ServerConfig(max_depth=4))
        request = ServeRequest("roads", "parks", level=4)

        async def go():
            async with server:
                await server.submit(request)  # warm the memo
                first = await server.submit(request)
                second = await server.submit(request)
                server.admission._depth = 2
                try:
                    deeper = await server.submit(request)
                finally:
                    server.admission._depth = 0
                return first, second, deeper

        first, second, deeper = asyncio.run(go())
        assert first.provenance is second.provenance
        assert (first.provenance.rung, first.provenance.requested) == ("full", "gh(level=4)")
        assert (first.provenance.via, first.provenance.pressure) == ("memo", 0.0)
        assert not first.provenance.degraded and first.provenance.attempts == ()
        assert deeper.provenance.via == "memo"
        assert deeper.provenance.pressure == 0.5
        assert deeper.provenance is not first.provenance

    def test_move_then_undo_replays_from_the_memo(self, tmp_path):
        """Maintenance with ``republish_key`` leaves the edited dataset's
        identity warm: once an undo restores the arrays, the next read is
        a memo hit with the answer from before the move."""
        catalog = fresh_catalog()
        store = ArtifactCatalog(tmp_path / "store")
        server = EstimationServer(catalog, store=store)
        request = ServeRequest("roads", "rivers", level=5)
        roads = catalog["roads"]
        idx = np.flatnonzero(roads.rects.xmin > 0.1)[:20]
        hists = [GHHistogram.build(roads, 5)]

        def write(added: RectArray) -> None:
            stale_key = HistogramCache.key_for(roads, "gh", 5)
            removed = roads.rects[idx]
            for axis in ("xmin", "ymin", "xmax", "ymax"):
                getattr(roads.rects, axis)[idx] = getattr(added, axis)
            roads.mark_mutated()
            hists.append(apply_updates(
                hists[-1], added=added, removed=removed, store=store,
                stale_key=stale_key,
                republish_key=HistogramCache.key_for(roads, "gh", 5),
                dataset=roads,
            ))

        async def go():
            async with server:
                before = await server.submit(request)
                original = roads.rects[idx]
                write(RectArray(
                    original.xmin - 0.05, original.ymin,
                    original.xmax - 0.05, original.ymax,
                ))
                moved = await server.submit(request)
                write(original)
                undone = await server.submit(request)
                return before, moved, undone

        before, moved, undone = asyncio.run(go())
        assert before.provenance.via == "batch"
        assert moved.provenance.via == "batch"  # new geometry, new memo key
        assert undone.provenance.via == "memo"
        assert undone.selectivity == before.selectivity

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
