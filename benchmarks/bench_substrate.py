"""Micro-benchmarks of the substrate layers.

Not a paper figure — these guard the building blocks every experiment
stands on (Hilbert keys, exact joins, histogram construction), so a
performance regression in a kernel is visible before it distorts the
relative metrics of Figures 6 and 7.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.hilbert import hilbert_index_vectorized
from repro.histograms import GHHistogram, PHHistogram
from repro.join import plane_sweep_count
from repro.rtree import flat_join_count, flat_load_str


def test_hilbert_keys_100k(benchmark):
    rng = np.random.default_rng(0)
    x = rng.integers(0, 1 << 16, size=100_000)
    y = rng.integers(0, 1 << 16, size=100_000)
    benchmark.group = "substrate-hilbert"
    keys = benchmark(lambda: hilbert_index_vectorized(16, x, y))
    assert len(keys) == 100_000


def test_str_bulk_load(benchmark, pair_context):
    ctx = pair_context
    benchmark.group = "substrate-bulkload"
    tree = benchmark(lambda: flat_load_str(ctx.ds2.rects))
    assert len(tree) == len(ctx.ds2)


@pytest.mark.parametrize(
    "engine",
    ["sweep", "rtree"],
)
def test_exact_join_engines(benchmark, pair_context, engine):
    ctx = pair_context
    benchmark.group = f"substrate-join-{ctx.name}"
    a, b = ctx.ds1.rects, ctx.ds2.rects
    if engine == "sweep":
        count = benchmark(lambda: plane_sweep_count(a, b))
    else:
        ta, tb = flat_load_str(a), flat_load_str(b)
        count = benchmark(lambda: flat_join_count(ta, tb))
    assert count == ctx.actual_pairs


@pytest.mark.parametrize("scheme", ["ph", "gh"])
def test_histogram_build_level7(benchmark, pair_context, scheme):
    ctx = pair_context
    benchmark.group = f"substrate-histbuild-{ctx.name}"
    hist_cls = PHHistogram if scheme == "ph" else GHHistogram
    hist = benchmark(lambda: hist_cls.build(ctx.ds2, 7, extent=ctx.ds1.extent))
    assert hist.count == len(ctx.ds2)
