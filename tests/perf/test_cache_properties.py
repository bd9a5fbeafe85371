"""Property-based tests for the histogram cache's retention tier: any
sequence of lookups, installs, removals and clears keeps the byte
budget and counters consistent, charges every entry the bytes it holds
(dense or packed), keeps every retained key ranked, packs every dense
entry that can pack before it drops one, evicts the smallest
``(form, H, touch)`` first, and every answer matches a cold build."""

from __future__ import annotations

from functools import cache

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.datasets import SpatialDataset
from repro.histograms import GHHistogram, PHHistogram
from repro.histograms.file import (
    PackedHistogram,
    histogram_parts,
    pack_histogram,
    pack_if_smaller,
)
from repro.perf import HistogramCache
from tests.conftest import random_rects

SIZES = (10, 120, 700, 2500)
LEVELS = (3, 4, 5)
BUILDERS = {"gh": GHHistogram, "ph": PHHistogram}


@cache
def _dataset(index: int) -> SpatialDataset:
    rng = np.random.default_rng(1000 + index)
    return SpatialDataset(f"d{index}", random_rects(rng, SIZES[index], max_side=0.2))


@cache
def _cold(index: int, scheme: str, level: int):
    return BUILDERS[scheme].build(_dataset(index), level)


@cache
def _packed_bytes(index: int, scheme: str, level: int) -> int:
    return pack_histogram(_cold(index, scheme, level)).size_bytes


lookup = st.tuples(
    st.integers(min_value=0, max_value=len(SIZES) - 1),
    st.sampled_from(sorted(BUILDERS)),
    st.sampled_from(LEVELS),
)
operation = st.one_of(
    lookup,
    st.tuples(st.sampled_from(["install", "discard"]), lookup),
    st.just("clear"),
)


def _check_ranked(histograms: HistogramCache) -> None:
    """Every retained key has a live rank and a heap record at or below
    it, which is what lets eviction trust the heap's minimum; a packed
    entry ranks at form 1."""
    with histograms._lock:
        assert set(histograms._rank) == set(histograms._entries) >= histograms._packable
        lowest = {}
        for form, priority, touch, key in histograms._heap:
            record = (form, priority, touch)
            lowest[key] = min(lowest.get(key, record), record)
        assert all(lowest[key] <= histograms._live(key) for key in histograms._rank)
        for key, value in histograms._entries.items():
            if isinstance(value, PackedHistogram):
                assert key not in histograms._packable


def _check_packs_before_drops(histograms: HistogramCache) -> None:
    """After a step that dropped an entry, no retained dense entry could
    still pack: each was packed, or scanned once and found unpackable."""
    with histograms._lock:
        assert not histograms._packable
        for value in histograms._entries.values():
            if not isinstance(value, PackedHistogram):
                assert pack_if_smaller(value) is None


def _drain_in_rank_order(histograms: HistogramCache) -> None:
    """Evict until empty; each victim is the smallest ``(form, H,
    touch)``.  A form-0 victim is packed, or kept as it is when it packs
    no smaller, at form 1 with the floor unchanged; a form-1 victim is
    dropped and the floor rises to its ``H``."""
    with histograms._lock:
        for _ in range(2 * len(histograms._entries)):  # each key packs at most once
            if not histograms._entries:
                break
            victim = min(histograms._rank, key=histograms._live)
            rank, floor = histograms._live(victim), histograms._floor
            histograms._evict_one()
            if rank[0] == 0:
                assert histograms._floor == floor
                assert histograms._live(victim)[0] == 1
            else:
                assert histograms._floor == rank[1]
                assert victim not in histograms._rank
        assert not histograms._entries and histograms._bytes == 0


@settings(max_examples=60, deadline=None)
@given(
    st.lists(operation, min_size=1, max_size=40),
    st.sampled_from([40_000, 90_000, 150_000]),
)
def test_lookup_sequences_keep_budget_counters_and_answers(ops, max_bytes):
    histograms = HistogramCache(max_bytes=max_bytes)
    size_of = {}
    packed_size_of = {}
    lookups = 0
    for op in ops:
        evictions = histograms.stats.evictions
        if op == "clear":
            histograms.clear()
        elif op[0] == "install":
            index, scheme, level = op[1]
            key = HistogramCache.key_for(_dataset(index), scheme, level)
            cold = _cold(index, scheme, level)
            histograms.install(key, cold)
            size_of[key] = cold.size_bytes
            packed_size_of[key] = _packed_bytes(index, scheme, level)
        elif op[0] == "discard":
            index, scheme, level = op[1]
            histograms.discard(HistogramCache.key_for(_dataset(index), scheme, level))
        else:
            index, scheme, level = op
            key = HistogramCache.key_for(_dataset(index), scheme, level)
            hist, source = histograms.resolve(_dataset(index), scheme, level)
            lookups += 1
            size_of[key] = hist.size_bytes
            packed_size_of[key] = _packed_bytes(index, scheme, level)
            assert source in ("l1", "build")
            scalars, planes = histogram_parts(hist)
            cold_scalars, cold_planes = histogram_parts(_cold(index, scheme, level))
            assert scalars == cold_scalars
            assert np.array_equal(planes, cold_planes)
        retained = histograms.keys()
        assert histograms.current_bytes <= histograms.max_bytes
        packed = {k for k in retained if isinstance(histograms._entries[k], PackedHistogram)}
        assert histograms.current_bytes == sum(
            packed_size_of[k] if k in packed else size_of[k] for k in retained
        )
        assert all(packed_size_of[k] < size_of[k] for k in packed)
        assert len(retained) == len(histograms)
        stats = histograms.stats
        assert stats.hits + stats.misses == lookups
        assert stats.builds == stats.misses
        assert stats.derivations == 0
        assert stats.packs >= len(packed)
        _check_ranked(histograms)
        if stats.evictions > evictions:
            _check_packs_before_drops(histograms)
    _drain_in_rank_order(histograms)
