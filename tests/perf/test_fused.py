"""Fused Equation 5 kernels: bit-identity, BLAS-dot agreement, validation."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from repro.core import GHEstimator
from repro.core.matrix import pairwise_selectivities
from repro.datasets import SpatialDataset
from repro.histograms import (
    GHHistogram,
    fused_pair_estimates,
    fused_selectivity_matrix,
    stack_gh,
)
from tests.conftest import random_rects


@pytest.fixture
def datasets(rng) -> "list[SpatialDataset]":
    return [
        SpatialDataset(f"d{i}", random_rects(rng, 150 + 40 * i)) for i in range(5)
    ]


@pytest.fixture
def histograms(datasets) -> "list[GHHistogram]":
    return [GHHistogram.build(ds, 4) for ds in datasets]


class TestStack:
    def test_shapes(self, histograms):
        stack = stack_gh(histograms)
        k, cells = len(histograms), histograms[0].c.size
        assert len(stack) == k
        for plane in (stack.c, stack.o, stack.h, stack.v):
            assert plane.shape == (k, cells)
        assert stack.counts.dtype == np.int64

    def test_grid_mismatch_rejected(self, datasets):
        coarse = GHHistogram.build(datasets[0], 3)
        fine = GHHistogram.build(datasets[1], 4)
        with pytest.raises(ValueError, match="grid"):
            stack_gh([coarse, fine])

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError):
            stack_gh([])


class TestFusedPairs:
    def test_bit_identical_to_scalar_combine(self, histograms):
        """The fused kernel must reproduce ``estimate_selectivity``
        *bit-for-bit* for every ordered pair, including self-joins —
        this is the contract that lets the memo and the batch engine
        substitute fused results for scalar ones."""
        k = len(histograms)
        idx1, idx2 = np.meshgrid(np.arange(k), np.arange(k), indexing="ij")
        stack = stack_gh(histograms)
        fused = fused_pair_estimates(stack, idx1.ravel(), idx2.ravel())
        for flat, (i, j) in enumerate(zip(idx1.ravel(), idx2.ravel())):
            scalar = histograms[i].estimate_selectivity(histograms[j])
            assert fused[flat] == scalar, (i, j)

    def test_chunking_preserves_identity(self, histograms, monkeypatch):
        """Results are identical regardless of the pair-chunk size the
        kernel uses for checkpoint granularity."""
        import repro.histograms.fused as fused_mod

        stack = stack_gh(histograms)
        idx1 = np.array([0, 1, 2, 3, 4, 0], dtype=np.intp)
        idx2 = np.array([1, 2, 3, 4, 0, 0], dtype=np.intp)
        baseline = fused_pair_estimates(stack, idx1, idx2)
        monkeypatch.setattr(fused_mod, "_PAIR_CHUNK", 2)
        chunked = fused_pair_estimates(stack, idx1, idx2)
        assert np.array_equal(baseline, chunked)

    def test_empty_histogram_yields_zero(self, rng):
        full = GHHistogram.build(SpatialDataset("f", random_rects(rng, 100)), 4)
        empty = GHHistogram.build(
            SpatialDataset("e", random_rects(rng, 0), full.grid.extent), 4
        )
        stack = stack_gh([full, empty])
        out = fused_pair_estimates(
            stack, np.array([0, 1, 1]), np.array([1, 0, 1])
        )
        assert np.array_equal(out, np.zeros(3))
        assert full.estimate_selectivity(empty) == 0.0

    def test_mismatched_index_lengths_rejected(self, histograms):
        stack = stack_gh(histograms)
        with pytest.raises(ValueError):
            fused_pair_estimates(stack, np.array([0, 1]), np.array([0]))


class TestFusedMatrix:
    def test_close_to_scalar(self, histograms):
        values = fused_selectivity_matrix(histograms)
        pairs = list(combinations(range(len(histograms)), 2))
        assert len(values) == len(pairs)
        for value, (i, j) in zip(values, pairs):
            scalar = histograms[i].estimate_selectivity(histograms[j])
            assert value == pytest.approx(scalar, rel=1e-12)

    def test_symmetric(self, histograms):
        """Swapping every pair's operands gives the same floats bit for bit."""
        k = len(histograms)
        forward = dict(zip(combinations(range(k), 2), fused_selectivity_matrix(histograms)))
        backward = fused_selectivity_matrix(histograms[::-1])
        for value, (i, j) in zip(backward, combinations(reversed(range(k)), 2)):
            assert value == forward[(j, i)]

    def test_grid_mismatch_rejected(self, datasets):
        coarse = GHHistogram.build(datasets[0], 3)
        fine = GHHistogram.build(datasets[1], 4)
        with pytest.raises(ValueError, match="grid"):
            fused_selectivity_matrix([coarse, fine])

    def test_empty_side_yields_zero(self, rng):
        full = GHHistogram.build(SpatialDataset("f", random_rects(rng, 100)), 4)
        empty = GHHistogram.build(
            SpatialDataset("e", random_rects(rng, 0), full.grid.extent), 4
        )
        assert fused_selectivity_matrix([full, empty, full]) == [
            0.0,
            pytest.approx(full.estimate_selectivity(full), rel=1e-12),
            0.0,
        ]


class TestMatrixEngines:
    def test_fused_matches_pairwise(self, datasets):
        est = GHEstimator(level=4)
        fused = pairwise_selectivities(datasets, est, engine="fused")
        scalar = pairwise_selectivities(datasets, est, engine="pairwise")
        assert fused.keys() == scalar.keys()
        for key, value in scalar.items():
            assert fused[key] == pytest.approx(value, rel=1e-12)

    def test_fused_runs_no_per_pair_combines(self, datasets, monkeypatch):
        """The fused matrix answers every pair from its own dot products;
        the pairwise engine combines each pair once."""
        from repro.histograms import GHHistogram

        calls = []
        original = GHHistogram.estimate_selectivity

        def counting(self, other):
            calls.append((self, other))
            return original(self, other)

        monkeypatch.setattr(GHHistogram, "estimate_selectivity", counting)
        est = GHEstimator(level=4)
        pairwise_selectivities(datasets, est, engine="fused")
        assert calls == []
        pairwise_selectivities(datasets, est, engine="pairwise")
        assert len(calls) == len(datasets) * (len(datasets) - 1) // 2

    def test_auto_picks_fused_for_gh(self, datasets):
        est = GHEstimator(level=4)
        auto = pairwise_selectivities(datasets, est)
        fused = pairwise_selectivities(datasets, est, engine="fused")
        assert auto == fused

    def test_fused_rejects_non_gh(self, datasets):
        from repro.core import PHEstimator

        with pytest.raises(ValueError, match="fused"):
            pairwise_selectivities(datasets, PHEstimator(level=4), engine="fused")

    def test_unknown_engine_rejected(self, datasets):
        with pytest.raises(ValueError, match="engine"):
            pairwise_selectivities(datasets, GHEstimator(level=4), engine="warp")
