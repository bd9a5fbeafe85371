"""The counter snapshots perfbench reads by name, pinned key for key.

``perfbench/workloads.py`` builds its ``counters`` record from
``HistogramCache.stats.snapshot()``, ``ArtifactCatalog.stats.snapshot()``
and ``EstimationServer.stats()``.  A renamed, dropped or added key
silently changes that record, so the exact key sets (and the values of
one small, deterministic session) are pinned here.
"""

import asyncio

import numpy as np
import pytest

from repro.datasets import SpatialDataset
from repro.geometry import Rect
from repro.serve import EstimationServer, ServeRequest, ServerConfig
from repro.store import ArtifactCatalog
from tests.conftest import random_rects

CACHE_KEYS = {"hits", "misses", "builds", "derivations", "evictions", "packs", "hit_rate"}
STORE_KEYS = {
    "hits", "misses", "publishes", "corrupt_detected", "evictions",
    "invalidations", "hit_rate",
}
SERVER_KEYS = {
    "admission": {
        "admitted", "released", "rejected_queue", "rejected_quota",
        "rejected", "high_water",
    },
    "rungs": {"full", "cached-coarse", "parametric", "shed"},
    "batcher": {
        "queries", "batches", "coalesced", "batch_failures", "solo_retries",
        "expired_before_run",
    },
    "cache": CACHE_KEYS,
    "memo": {"hits", "misses", "inserts", "evictions", "skips", "hit_rate",
             "entries", "fast_hits", "fast_combines"},
    "store": STORE_KEYS,
}


@pytest.fixture
def catalog():
    """Fresh datasets per test, so no fingerprint starts warm."""
    rng = np.random.default_rng(20260808)
    return {
        name: SpatialDataset(name, random_rects(rng, 300), Rect.unit())
        for name in ("roads", "rivers")
    }


def _session(catalog, tmp_path):
    """One request answered by the batcher, then replayed by the memo."""
    server = EstimationServer(catalog, store=ArtifactCatalog(tmp_path))

    async def go():
        async with server:
            for _ in range(2):
                await server.submit(ServeRequest("roads", "rivers", level=4))

    asyncio.run(go())
    return server


def test_server_stats_key_sets(catalog, tmp_path):
    stats = _session(catalog, tmp_path).stats()
    assert set(stats) == set(SERVER_KEYS) | {"depth", "pressure"}
    for group, keys in SERVER_KEYS.items():
        assert set(stats[group]) == keys, group


def test_server_stats_without_store_or_memo(catalog):
    stats = EstimationServer(catalog, ServerConfig(memo_entries=0)).stats()
    assert "store" not in stats
    assert stats["memo"] == {"entries": 0, "fast_hits": 0, "fast_combines": 0}


def test_cache_and_store_snapshots(catalog, tmp_path):
    server = _session(catalog, tmp_path)
    assert set(server.cache.stats.snapshot()) == CACHE_KEYS
    assert server.store is not None
    assert set(server.store.stats.snapshot()) == STORE_KEYS


def test_session_values(catalog, tmp_path):
    stats = _session(catalog, tmp_path).stats()
    assert stats["admission"] == {
        "admitted": 1, "released": 1, "rejected_queue": 0, "rejected_quota": 0,
        "rejected": 0, "high_water": 1,
    }
    assert stats["rungs"] == {"full": 2, "cached-coarse": 0, "parametric": 0, "shed": 0}
    assert stats["batcher"] == {
        "queries": 1, "batches": 1, "coalesced": 0, "batch_failures": 0,
        "solo_retries": 0, "expired_before_run": 0,
    }
    assert stats["cache"] == {
        "hits": 0, "misses": 2, "builds": 2, "derivations": 0, "evictions": 0,
        "packs": 0, "hit_rate": 0.0,
    }
    # Two misses: the fast lane's cold-fingerprint decline, then the
    # batch's probe.
    assert stats["memo"] == {
        "hits": 1, "misses": 2, "inserts": 1, "evictions": 0, "skips": 0,
        "hit_rate": 1 / 3, "entries": 1, "fast_hits": 1, "fast_combines": 0,
    }
    assert stats["store"] == {
        "hits": 0, "misses": 2, "publishes": 2, "corrupt_detected": 0,
        "evictions": 0, "invalidations": 0, "hit_rate": 0.0,
    }
    assert (stats["depth"], stats["pressure"]) == (0, 0.0)
