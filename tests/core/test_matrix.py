"""Unit tests for all-pairs selectivity estimation."""

import tracemalloc

import numpy as np
import pytest

import repro.perf.fingerprint as fingerprint_mod
from repro.core import (
    GHEstimator,
    ParametricEstimator,
    PHEstimator,
    PreparedEstimator,
    pairwise_selectivities,
)
from repro.core.optimizer import optimize_join_order
from repro.datasets import SpatialDataset, make_clustered, make_uniform
from repro.errors import EstimationTimeout
from repro.geometry import Rect, RectArray, common_extent
from repro.perf import CachedEstimator, HistogramCache
from repro.runtime import Deadline, runtime_scope


@pytest.fixture(scope="module")
def three_datasets():
    return [
        make_uniform(600, seed=140, name="A"),
        make_clustered(600, seed=141, name="B"),
        make_uniform(400, seed=142, name="C"),
    ]


class TestPairwiseSelectivities:
    def test_all_pairs_present(self, three_datasets):
        matrix = pairwise_selectivities(three_datasets, GHEstimator(4))
        assert set(matrix) == {("A", "B"), ("A", "C"), ("B", "C")}

    def test_keys_sorted(self, three_datasets):
        matrix = pairwise_selectivities(three_datasets, GHEstimator(3))
        assert all(a <= b for a, b in matrix)

    def test_matches_direct_estimates(self, three_datasets):
        matrix = pairwise_selectivities(three_datasets, GHEstimator(4))
        a, b, _ = three_datasets
        direct = GHEstimator(4).estimate(a, b)
        assert matrix[("A", "B")] == pytest.approx(direct)

    def test_default_estimator_is_gh7(self, three_datasets):
        matrix = pairwise_selectivities(three_datasets)
        explicit = pairwise_selectivities(three_datasets, GHEstimator(7))
        assert matrix == explicit

    def test_parametric_works(self, three_datasets):
        matrix = pairwise_selectivities(three_datasets, ParametricEstimator())
        assert all(v >= 0 for v in matrix.values())

    def test_mixed_extents_unified(self):
        wide = make_uniform(200, seed=143, extent=Rect(0, 0, 2, 2), name="W")
        unit = make_uniform(200, seed=144, name="U")
        spy = _Spy(GHEstimator(3))
        matrix = pairwise_selectivities([wide, unit], spy)
        assert ("U", "W") in matrix
        (w_seen, w_extent), (u_seen, u_extent) = spy.calls
        assert w_extent == u_extent == wide.extent
        assert w_seen is wide  # already on the shared extent: passed through
        assert u_seen is not unit  # re-declared through with_extent
        assert u_seen.extent == wide.extent and u_seen.token is unit.token
        assert matrix == _pre_change_matrix([wide, unit], GHEstimator(3))

    def test_duplicate_names_rejected(self, three_datasets):
        a = three_datasets[0]
        with pytest.raises(ValueError, match="unique"):
            pairwise_selectivities([a, a])

    def test_single_dataset_rejected(self, three_datasets):
        with pytest.raises(ValueError, match="two datasets"):
            pairwise_selectivities(three_datasets[:1])

    def test_feeds_the_optimizer(self, three_datasets):
        matrix = pairwise_selectivities(three_datasets, GHEstimator(4))
        sizes = {ds.name: len(ds) for ds in three_datasets}
        plan = optimize_join_order(sizes, matrix)
        assert set(plan.order) == {"A", "B", "C"}


class _Spy(PreparedEstimator):
    """Records what each ``prepare`` call receives (``inner`` keeps a GH
    estimator fusable, as for :class:`~repro.perf.CachedEstimator`)."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def prepare(self, dataset, *, extent=None):
        self.calls.append((dataset, extent))
        return self.inner.prepare(dataset, extent=extent)

    def combine(self, prep1, prep2):
        return self.inner.combine(prep1, prep2)


def _pre_change_matrix(datasets, estimator, engine="auto"):
    """The preparation the pass-through replaced: scan every rectangle
    for the shared extent, then re-declare every dataset on it."""
    extent = common_extent(*(ds.rects for ds in datasets if len(ds)))
    for ds in datasets:
        extent = extent.union(ds.extent)
    redeclared = [ds.with_extent(extent) for ds in datasets]
    return pairwise_selectivities(redeclared, estimator, extent=extent, engine=engine)


class TestPassThroughExtents:
    @pytest.mark.parametrize(
        "make_estimator",
        [
            lambda: GHEstimator(4),
            lambda: PHEstimator(3),
            ParametricEstimator,
            lambda: CachedEstimator(GHEstimator(4), HistogramCache()),
        ],
        ids=["gh", "ph", "parametric", "cached-gh"],
    )
    @pytest.mark.parametrize("engine", ["auto", "pairwise"])
    def test_equal_extents_match_the_with_extent_path(
        self, three_datasets, make_estimator, engine
    ):
        new = pairwise_selectivities(three_datasets, make_estimator(), engine=engine)
        old = _pre_change_matrix(three_datasets, make_estimator(), engine=engine)
        assert new == old

    def test_equal_extents_pass_through(self, three_datasets):
        spy = _Spy(GHEstimator(3))
        pairwise_selectivities(three_datasets, spy)
        assert all(seen is ds for (seen, _), ds in zip(spy.calls, three_datasets))
        assert len(spy.calls) == len(three_datasets)

    def test_warm_call_folds_no_fingerprint(self, three_datasets, monkeypatch):
        """Second call over a warm cache: every fingerprint is memoized,
        so no coordinate fold runs (audit switched off to isolate it)."""
        monkeypatch.setattr(fingerprint_mod, "_AUDIT_INTERVAL", 1 << 62)
        folds = []
        fold = fingerprint_mod.dataset_fingerprint_uncached

        def counting_fold(dataset):
            folds.append(dataset.name)
            return fold(dataset)

        monkeypatch.setattr(fingerprint_mod, "dataset_fingerprint_uncached", counting_fold)
        # Fresh tokens: nothing memoized yet.
        datasets = [SpatialDataset(ds.name, ds.rects, ds.extent) for ds in three_datasets]
        estimator = CachedEstimator(GHEstimator(4), HistogramCache())
        cold = pairwise_selectivities(datasets, estimator)
        assert sorted(folds) == ["A", "B", "C"]
        folds.clear()
        warm = pairwise_selectivities(datasets, estimator)
        assert folds == []
        assert warm == cold
        assert estimator.cache.stats.hits == 3

    def test_degenerate_boundary_extent_pinned(self):
        """Every rectangle of every dataset is a horizontal segment on
        the declared top edge.  The rect scan found a zero-height bounding
        box and widened it past ``ymax = 1`` (by ~5e-10); the shared
        extent is now exactly the union of the declared extents."""
        rng = np.random.default_rng(145)
        datasets = []
        for name, n in (("A", 50), ("B", 60)):
            x0 = rng.uniform(0.0, 0.9, n)
            x1 = x0 + rng.uniform(0.0, 0.1, n)
            y = np.ones(n)
            datasets.append(SpatialDataset(name, RectArray(x0, y, x1, y), Rect.unit()))
        widened = common_extent(*(ds.rects for ds in datasets)).union(Rect.unit())
        assert widened.ymax > 1.0  # the pre-change shared extent
        spy = _Spy(GHEstimator(3))
        matrix = pairwise_selectivities(datasets, spy)
        assert [extent for _, extent in spy.calls] == [Rect.unit(), Rect.unit()]
        assert all(seen is ds for (seen, _), ds in zip(spy.calls, datasets))
        assert matrix == pairwise_selectivities(datasets, GHEstimator(3), extent=Rect.unit())

    def test_equal_extents_take_no_union(self, three_datasets, monkeypatch):
        """Only an extent that differs from the running one is unioned."""
        unions = []
        union = Rect.union

        def counting(self, other):
            unions.append(other)
            return union(self, other)

        monkeypatch.setattr(Rect, "union", counting)
        expected = pairwise_selectivities(three_datasets, GHEstimator(3), extent=Rect.unit())
        assert pairwise_selectivities(three_datasets, GHEstimator(3)) == expected
        assert unions == []
        wide = make_uniform(100, seed=146, extent=Rect(0, 0, 2, 2), name="W")
        pairwise_selectivities([*three_datasets, wide], GHEstimator(3))
        assert unions == [wide.extent]

    def test_all_empty_datasets(self):
        """No rectangle to scan no longer means no extent: the declared
        ones are enough."""
        datasets = [SpatialDataset(n, RectArray.from_rects([]), Rect.unit()) for n in "AB"]
        assert pairwise_selectivities(datasets, GHEstimator(3)) == {("A", "B"): 0.0}


class TestWarmFusedCall:
    """A warm GH call over five level-7 files: every summary is an L1 hit
    and every fingerprint is memoized, so only the fused kernel works."""

    @pytest.fixture
    def warm(self, monkeypatch):
        # No fingerprint audit may land inside the measured call.
        monkeypatch.setattr(fingerprint_mod, "_AUDIT_INTERVAL", 1 << 62)
        datasets = [make_uniform(300, seed=150 + i, name=f"R{i}") for i in range(5)]
        estimator = CachedEstimator(GHEstimator(7), HistogramCache())
        pairwise_selectivities(datasets, estimator)
        return datasets, estimator

    def test_allocates_no_plane_copies(self, warm):
        """One level-7 stat plane is 128 KiB; stacking the 4 planes of
        5 files copied 2.5 MiB per call.  The per-pair dots allocate
        nothing proportional to the grid."""
        datasets, estimator = warm
        tracemalloc.start()
        try:
            pairwise_selectivities(datasets, estimator)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert estimator.cache.stats.builds == 5
        assert peak < 64 * 1024

    def test_expired_deadline_stops_at_the_kernel_checkpoint(self, warm):
        datasets, estimator = warm
        with runtime_scope(deadline=Deadline(0.0)):
            with pytest.raises(EstimationTimeout) as caught:
                pairwise_selectivities(datasets, estimator)
        assert caught.value.stage == "gh.combine.fused"
