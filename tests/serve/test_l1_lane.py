"""The serve fast lane's L1 route: resident files combined on the loop.

After a memo miss on warm fingerprints, a pair whose two files are
dense, heap-resident L1 entries of at most level 7 is answered on the
event loop with ``via="l1"``, bit-identical to the batcher.  Every
other pair (packed, store-mapped, finer, under a fault hook, with a
cold fingerprint, or on a server without a memo) crosses to the
batcher exactly as before.
"""

import asyncio
import contextlib

import numpy as np
import pytest

from repro.datasets import SpatialDataset
from repro.geometry import Rect
from repro.histograms import GHHistogram
from repro.histograms.file import pack_histogram
from repro.perf import HistogramCache
from repro.serve import EstimationServer, ServeRequest, ServerConfig
from repro.service.faults import FaultPlan, FaultSpec, inject_faults
from repro.store import ArtifactCatalog
from tests.conftest import random_rects

LEVEL = 5


@pytest.fixture
def catalog():
    """Fresh datasets per test, so no fingerprint starts warm."""
    rng = np.random.default_rng(20261019)
    return {
        name: SpatialDataset(name, random_rects(rng, 300), Rect.unit())
        for name in ("roads", "rivers")
    }


def _counts(server):
    stats = server.stats()
    return {
        "admission": stats["admission"],
        "batcher": stats["batcher"],
        "cache_hits": stats["cache"]["hits"],
        "memo_inserts": stats["memo"]["inserts"],
        "fast_combines": stats["memo"]["fast_combines"],
    }


def _clear_memo(server):
    if server.memo is not None:
        server.memo.clear()


def test_resident_pair_answers_on_the_loop(catalog):
    server = EstimationServer(catalog)
    request = ServeRequest("roads", "rivers", level=LEVEL)

    async def go():
        async with server:
            cold = await server.submit(request)
            _clear_memo(server)
            before = _counts(server)
            warm = await server.submit(request)
            return cold, before, warm, _counts(server)

    cold, before, warm, after = asyncio.run(go())
    assert cold.provenance.via == "batch"
    assert warm.provenance.via == "l1"
    assert (warm.provenance.rung, warm.degraded) == ("full", False)
    assert warm.provenance.attempts == ()
    assert warm.selectivity == cold.selectivity
    built = {name: GHHistogram.build(ds, LEVEL) for name, ds in catalog.items()}
    assert warm.selectivity == built["roads"].estimate_selectivity(built["rivers"])
    assert after["admission"] == before["admission"]
    assert after["batcher"] == before["batcher"]
    assert after["cache_hits"] - before["cache_hits"] == 2
    assert after["memo_inserts"] - before["memo_inserts"] == 1
    assert after["fast_combines"] - before["fast_combines"] == 1
    stats = server.stats()
    assert stats["rungs"]["full"] == 2
    assert stats["memo"]["fast_hits"] == 0


def test_the_lane_answer_is_replayed_by_the_memo(catalog):
    server = EstimationServer(catalog)
    request = ServeRequest("roads", "rivers", level=LEVEL)

    async def go():
        async with server:
            await server.submit(request)
            _clear_memo(server)
            return [await server.submit(request) for _ in range(2)]

    combined, replayed = asyncio.run(go())
    assert (combined.provenance.via, replayed.provenance.via) == ("l1", "memo")
    assert replayed.selectivity == combined.selectivity
    assert server.stats()["memo"]["fast_hits"] == 1


def _packed(server, catalog):
    for name in ("roads", "rivers"):
        key = HistogramCache.key_for(catalog[name], "gh", LEVEL)
        hist = server.cache.get_or_build(catalog[name], "gh", LEVEL)
        server.cache.install(key, pack_histogram(hist))
    return ServeRequest("roads", "rivers", level=LEVEL)


def _store_mapped(server, catalog):
    for name in ("roads", "rivers"):
        server.cache.get_or_build(catalog[name], "gh", LEVEL)  # published
    server.cache.clear()  # the next read maps both files from the store
    return ServeRequest("roads", "rivers", level=LEVEL)


def _fine(server, catalog):
    return ServeRequest("roads", "rivers", level=8)


DECLINES = {"packed": _packed, "store-mapped": _store_mapped, "level-8": _fine}


@pytest.mark.parametrize("case", sorted(DECLINES))
def test_non_resident_pairs_cross_to_the_batcher(case, catalog, tmp_path):
    server = EstimationServer(catalog, store=ArtifactCatalog(tmp_path / "store"))
    setup = DECLINES[case]

    async def go():
        async with server:
            request = setup(server, catalog)
            first = await server.submit(request)  # warms whatever is cold
            _clear_memo(server)
            before = _counts(server)
            again = await server.submit(request)
            return first, before, again, _counts(server)

    first, before, again, after = asyncio.run(go())
    assert again.provenance.via == "batch"
    assert again.selectivity == first.selectivity
    assert after["batcher"]["batches"] - before["batcher"]["batches"] == 1
    assert after["fast_combines"] == 0
    # Only the batcher's two resolves count: the lane counted nothing.
    assert after["cache_hits"] - before["cache_hits"] == 2


def _cold_fingerprint(catalog):
    catalog["roads"].mark_mutated()  # same arrays: same L1 key, cold fingerprint
    return contextlib.nullcontext()


def _fault_hook(catalog):
    return inject_faults(FaultPlan([FaultSpec("sampling.join", "error")]))  # never fires here


@pytest.mark.parametrize("closer", [_cold_fingerprint, _fault_hook])
def test_the_lane_declines_resident_files(closer, catalog):
    """Both files are resident, but a cold fingerprint or an active
    fault hook sends the read to the batcher before any probe."""
    server = EstimationServer(catalog)
    request = ServeRequest("roads", "rivers", level=LEVEL)

    async def go():
        async with server:
            first = await server.submit(request)
            _clear_memo(server)
            before = _counts(server)
            with closer(catalog):
                again = await server.submit(request)
            return first, before, again, _counts(server)

    first, before, again, after = asyncio.run(go())
    assert again.provenance.via == "batch"
    assert again.selectivity == first.selectivity
    assert after["fast_combines"] == 0
    assert after["cache_hits"] - before["cache_hits"] == 2


def test_no_memo_means_no_lane(catalog):
    server = EstimationServer(catalog, ServerConfig(memo_entries=0))
    request = ServeRequest("roads", "rivers", level=LEVEL)

    async def go():
        async with server:
            return [await server.submit(request) for _ in range(2)]

    first, again = asyncio.run(go())
    assert (first.provenance.via, again.provenance.via) == ("batch", "batch")
    assert again.selectivity == first.selectivity
    stats = server.stats()
    assert stats["batcher"]["batches"] == 2
    assert stats["cache"]["hits"] == 2
    assert stats["memo"] == {"entries": 0, "fast_hits": 0, "fast_combines": 0}


def test_nothing_blocking_runs_on_the_loop(loop_guard, catalog, tmp_path):
    """Under the loop guard a store-backed server answers memo hits,
    L1-lane combines, and cold, packed, store-mapped and level-8 pairs:
    every build, unpack, load and file mapping runs off the loop."""
    server = EstimationServer(catalog, store=ArtifactCatalog(tmp_path / "store"))
    resident = ServeRequest("roads", "rivers", level=LEVEL)
    swapped = ServeRequest("rivers", "roads", level=LEVEL)

    async def go():
        via = []
        async with server:
            via.append((await server.submit(resident)).provenance.via)  # cold
            via.append((await server.submit(resident)).provenance.via)  # memo
            via.append((await server.submit(swapped)).provenance.via)  # l1
            for setup in (_packed, _store_mapped, _fine):
                request = await asyncio.get_running_loop().run_in_executor(
                    None, setup, server, catalog
                )
                for _ in range(2):
                    _clear_memo(server)
                    via.append((await server.submit(request)).provenance.via)
        return via

    assert asyncio.run(go()) == ["batch", "memo", "l1"] + ["batch"] * 6
