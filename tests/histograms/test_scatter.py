"""The scatter-add kernel and the legacy-baseline switch.

``add_at_baseline`` restores the full pre-optimization build path (the
``np.add.at`` backend *and* the per-stage index expansion); the shipped
optimized builds must match it bit-for-bit, and beat it on paper-shaped
data.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.datasets import make_clustered, make_uniform, paper_pairs
from repro.histograms import GHHistogram, PHHistogram, add_at_baseline
from repro.histograms.scatter import scatter_add


class TestScatterAdd:
    @pytest.mark.parametrize("weighted", [True, False])
    @pytest.mark.parametrize("cells", [16, 1 << 10, 1 << 18])
    def test_matches_add_at(self, rng, weighted, cells):
        idx = rng.integers(0, cells, size=500).astype(np.int64)
        weights = rng.uniform(0.1, 2.0, size=500) if weighted else None
        fast = rng.uniform(0, 1, size=cells)  # non-zero prior content
        slow = fast.copy()
        scatter_add(fast, idx, weights)
        if weights is None:
            np.add.at(slow, idx, 1.0)
        else:
            np.add.at(slow, idx, weights)
        assert np.allclose(fast, slow, rtol=1e-12)

    def test_empty_indices_noop(self):
        out = np.zeros(64)
        scatter_add(out, np.empty(0, dtype=np.int64))
        assert not out.any()

    def test_repeated_indices_accumulate(self):
        out = np.zeros(4)
        scatter_add(out, np.array([1, 1, 1, 3]), np.array([1.0, 2.0, 3.0, 4.0]))
        assert out.tolist() == [0.0, 6.0, 0.0, 4.0]


class TestBaselineEquivalence:
    """Restoring the legacy path must not change a single bit of any build."""

    @pytest.mark.parametrize("level", [0, 3, 6])
    def test_gh_build_bit_identical(self, level):
        ds = make_clustered(2000, seed=42)
        fast = GHHistogram.build(ds, level)
        with add_at_baseline():
            slow = GHHistogram.build(ds, level)
        for name in ("c", "o", "h", "v"):
            assert np.array_equal(getattr(fast, name), getattr(slow, name)), name

    @pytest.mark.parametrize("level", [0, 3, 6])
    def test_ph_build_bit_identical(self, level):
        ds = make_uniform(2000, seed=43)
        fast = PHHistogram.build(ds, level)
        with add_at_baseline():
            slow = PHHistogram.build(ds, level)
        for name in ("num", "cov", "xavg", "yavg", "num_i", "cov_i", "xavg_i", "yavg_i"):
            assert np.array_equal(getattr(fast, name), getattr(slow, name)), name
        assert fast.avg_span == slow.avg_span

    def test_baseline_scope_restores(self):
        from repro.histograms import scatter

        # The backend default is numpy-version-dependent; the scope must
        # force the legacy path and restore whatever was set before.
        before = (scatter._use_bincount, scatter._fast_build)
        with add_at_baseline():
            assert not scatter._use_bincount
            assert not scatter._fast_build
        assert (scatter._use_bincount, scatter._fast_build) == before

    @pytest.mark.parametrize("flag", [True, False])
    def test_backends_interchangeable(self, rng, flag, monkeypatch):
        from repro.histograms import scatter

        monkeypatch.setattr(scatter, "_use_bincount", flag)
        ds = make_clustered(1500, seed=44)
        built = GHHistogram.build(ds, 5)
        monkeypatch.setattr(scatter, "_use_bincount", not flag)
        other = GHHistogram.build(ds, 5)
        for name in ("c", "o", "h", "v"):
            assert np.array_equal(getattr(built, name), getattr(other, name)), name


#: Build-time floors over the legacy path at levels 6-7 on the scale-20
#: TS/TCB pair (measured ~2.0-2.2x GH and ~1.4-1.5x PH on a 2-CPU x86_64 host).
BUILD_FLOORS = {GHHistogram: 1.5, PHHistogram: 1.2}


@pytest.fixture(scope="module")
def ts_tcb():
    return paper_pairs(scale=20.0)["TS_TCB"]


@pytest.mark.slow
@pytest.mark.parametrize("level", [6, 7])
@pytest.mark.parametrize("cls", [GHHistogram, PHHistogram], ids=["gh", "ph"])
def test_optimized_build_beats_the_legacy_path(ts_tcb, cls, level):
    """Interleaved best-of-40 A/B, so machine-speed drift cannot fake a
    speedup either way."""
    ts, tcb = ts_tcb

    def build():
        cls.build(ts, level)
        cls.build(tcb, level)

    build()  # warm caches and allocators before timing
    fast = slow = float("inf")
    for _ in range(40):
        start = time.perf_counter()
        build()
        fast = min(fast, time.perf_counter() - start)
        with add_at_baseline():
            start = time.perf_counter()
            build()
            slow = min(slow, time.perf_counter() - start)
    assert slow / fast >= BUILD_FLOORS[cls], f"{slow / fast:.2f}x"
