"""Property-based tests for the histogram cache's retention tier: any
sequence of lookups and clears keeps the byte budget and counters
consistent, and every answer matches a cold build."""

from __future__ import annotations

from functools import cache

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.datasets import SpatialDataset
from repro.histograms import GHHistogram, PHHistogram
from repro.histograms.file import histogram_parts
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


lookup = st.tuples(
    st.integers(min_value=0, max_value=len(SIZES) - 1),
    st.sampled_from(sorted(BUILDERS)),
    st.sampled_from(LEVELS),
)
operation = st.one_of(lookup, st.just("clear"))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(operation, min_size=1, max_size=40),
    st.sampled_from([40_000, 90_000, 150_000]),
)
def test_lookup_sequences_keep_budget_counters_and_answers(ops, max_bytes):
    histograms = HistogramCache(max_bytes=max_bytes)
    size_of = {}
    lookups = 0
    for op in ops:
        if op == "clear":
            histograms.clear()
        else:
            index, scheme, level = op
            key = HistogramCache.key_for(_dataset(index), scheme, level)
            hist, source = histograms.resolve(_dataset(index), scheme, level)
            lookups += 1
            size_of[key] = hist.size_bytes
            assert source in ("l1", "build")
            scalars, planes = histogram_parts(hist)
            cold_scalars, cold_planes = histogram_parts(_cold(index, scheme, level))
            assert scalars == cold_scalars
            assert np.array_equal(planes, cold_planes)
        retained = histograms.keys()
        assert histograms.current_bytes <= histograms.max_bytes
        assert histograms.current_bytes == sum(size_of[k] for k in retained)
        assert len(retained) == len(histograms)
        stats = histograms.stats
        assert stats.hits + stats.misses == lookups
        assert stats.builds == stats.misses
        assert stats.derivations == 0
