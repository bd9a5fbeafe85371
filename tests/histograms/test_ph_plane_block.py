"""PH files as one plane block: every construction path yields it.

A :class:`PHHistogram` keeps its eight Table 1 planes as the rows of one
C-contiguous ``(8, cells)`` array, ``planes``, in ``STAT_PLANES["ph"]``
order; ``build`` normalizes coverages and averages in place, a combine
evaluates Equation 1 in reused scratch planes, and ``histogram_parts``
persists the block as is.  Each test here builds a histogram one way and
checks that invariant, or checks the in-place arithmetic against the
fresh-temporary expressions it replaced, copied verbatim.
"""

import io
import json
import pickle

import numpy as np
import pytest

from repro.datasets import SpatialDataset
from repro.geometry import Rect
from repro.histograms import (
    GHHistogram,
    PHHistogram,
    histogram_from_bytes,
    histogram_to_bytes,
    load_histogram,
)
from repro.histograms.file import STAT_PLANES, histogram_from_parts, histogram_parts
from repro.perf import HistogramCache
from repro.service import FaultPlan, FaultSpec, inject_faults
from repro.store import ArtifactCatalog, MANIFEST_NAME, hist_entry_name
import repro.store.catalog as catalog_module
from tests.conftest import random_rects

#: Table 1's planes in the order files and store entries have always
#: stacked them, written out rather than read from ``STAT_PLANES``.
PH_ORDER = ("num", "cov", "xavg", "yavg", "num_i", "cov_i", "xavg_i", "yavg_i")
LEVELS = range(10)


def assert_block(hist: PHHistogram) -> None:
    """``planes`` is one C-contiguous (8, cells) block whose rows are the fields."""
    block = hist.planes
    assert block.shape == (8, hist.grid.cell_count)
    assert block.flags.c_contiguous
    start = block.__array_interface__["data"][0]
    for row, name in enumerate(PH_ORDER):
        plane = getattr(hist, name)
        assert plane.shape == (hist.grid.cell_count,), name
        assert plane.__array_interface__["data"][0] == start + row * block.strides[0], name
        assert np.shares_memory(plane, block), name


def assert_same_planes(a: PHHistogram, b: PHHistogram) -> None:
    assert a.planes.tobytes() == b.planes.tobytes()  # sign bits included
    assert a.avg_span == b.avg_span and a.count == b.count


@pytest.fixture
def dataset(rng):
    return SpatialDataset("blk", random_rects(rng, 300), Rect.unit())


def sparse(seed: int, n: int = 40) -> SpatialDataset:
    """Few rectangles in the lower-left quarter: fine grids leave most
    cells (and the whole upper-right) empty."""
    rng = np.random.default_rng(seed)
    return SpatialDataset(
        f"sparse{seed}",
        random_rects(rng, n, extent=Rect(0.0, 0.0, 0.5, 0.5), max_side=0.2),
        Rect.unit(),
    )


def mixed(seed: int) -> tuple[SpatialDataset, ...]:
    """Two sparse datasets around a dense one."""
    dense = SpatialDataset("dense", random_rects(np.random.default_rng(seed), 250))
    return (sparse(seed), dense, sparse(seed + 1, 15))


class TestConstructionPaths:
    def test_build(self, dataset):
        assert_block(PHHistogram.build(dataset, 4))

    def test_build_empty(self):
        empty = SpatialDataset("e", random_rects(np.random.default_rng(0), 0), Rect.unit())
        hist = PHHistogram.build(empty, 3)
        assert_block(hist)
        assert not hist.planes.any()

    def test_store_memmap_load(self, tmp_path, dataset):
        store = ArtifactCatalog(tmp_path / "store")
        key = HistogramCache.key_for(dataset, "ph", 5)
        built = PHHistogram.build(dataset, 5)
        assert store.put_histogram(key, built)
        loaded = store.load_histogram(key)
        assert isinstance(loaded.planes, np.memmap)
        assert_block(loaded)
        assert_same_planes(loaded, built)

    def test_from_parts(self, dataset):
        built = PHHistogram.build(dataset, 4)
        scalars, stats = histogram_parts(built)
        rebuilt = histogram_from_parts(scalars, stats.copy())
        assert_block(rebuilt)
        assert_same_planes(rebuilt, built)

    def test_from_bytes(self, dataset):
        built = PHHistogram.build(dataset, 4)
        loaded = histogram_from_bytes(histogram_to_bytes(built))
        assert_block(loaded)
        assert_same_planes(loaded, built)

    def test_pickle(self, dataset):
        built = PHHistogram.build(dataset, 4)
        back = pickle.loads(pickle.dumps(built))
        assert_block(back)
        assert_same_planes(back, built)

    def test_mutate_hook_returning_fresh_arrays(self, dataset):
        """A fault hook hands back eight new arrays; the constructor packs them."""
        fresh = []

        def replace_planes(planes):
            out = tuple(np.array(p) + 1.0 for p in planes)
            fresh.extend(out)
            return out

        plan = FaultPlan([FaultSpec("ph.build.cells", "corrupt", corruption=replace_planes)])
        with inject_faults(plan):
            hist = PHHistogram.build(dataset, 4)
        assert_block(hist)
        reference = PHHistogram.build(dataset, 4)
        # The hook sees the planes in field order; each lands in its own row.
        assert len(fresh) == 8
        for name, value in zip(PH_ORDER, fresh):
            assert not np.shares_memory(getattr(hist, name), value)
            assert np.array_equal(getattr(hist, name), getattr(reference, name) + 1.0)

    def test_planes_passed_separately_are_packed(self, dataset):
        built = PHHistogram.build(dataset, 3)
        copies = {name: getattr(built, name).copy() for name in PH_ORDER}
        packed = PHHistogram(grid=built.grid, count=built.count, avg_span=built.avg_span, **copies)
        assert_block(packed)
        assert_same_planes(packed, built)
        assert packed.estimate_selectivity(built) == built.estimate_selectivity(built)


class TestPersistedOrder:
    def test_stat_planes_is_the_block_order(self):
        assert STAT_PLANES["ph"] == PH_ORDER

    def test_histogram_parts_returns_the_block_itself(self, dataset):
        built = PHHistogram.build(dataset, 4)
        _, stats = histogram_parts(built)
        assert stats is built.planes
        assert np.shares_memory(stats, built.num)

    def test_version_two_npz_payload_decodes(self, dataset, tmp_path):
        """A version-2 PH file as written before PH files became one
        block (this payload builder is that writer, verbatim) decodes to
        the same planes."""
        hist = PHHistogram.build(dataset, 4)
        payload = {
            "version": np.int64(2),
            "kind": np.str_("ph"),
            "level": np.int64(hist.grid.level),
            "extent": np.array(hist.grid.extent.as_tuple(), dtype=np.float64),
            "count": np.int64(hist.count),
            "stats": np.stack([getattr(hist, plane) for plane in PH_ORDER]),
            "avg_span": np.float64(hist.avg_span),
        }
        np.savez(tmp_path / "v2.npz", **payload)
        assert_same_planes(load_histogram(tmp_path / "v2.npz"), hist)
        buf = io.BytesIO()
        np.savez(buf, **payload)
        assert_same_planes(histogram_from_bytes(buf.getvalue()), hist)

    def test_version_two_store_entry_decodes(self, dataset, tmp_path, monkeypatch):
        """A version-2 PH store entry whose stats were stacked plane by
        plane (the encoder before the block, verbatim) loads with the
        same planes, as a hit."""

        def stacked_encoder(hist):
            scalars, _ = histogram_parts(hist)
            stats = np.stack([getattr(hist, plane) for plane in PH_ORDER])
            return scalars, {"stats": np.ascontiguousarray(stats)}

        store = ArtifactCatalog(tmp_path / "store")
        key = HistogramCache.key_for(dataset, "ph", 5)
        built = PHHistogram.build(dataset, 5)
        monkeypatch.setattr(catalog_module, "encode_histogram", stacked_encoder)
        assert store.put_histogram(key, built)
        monkeypatch.undo()
        manifest_path = store.root / "objects" / hist_entry_name(key) / MANIFEST_NAME
        assert json.loads(manifest_path.read_text())["version"] == 2
        loaded = store.load_histogram(key)
        assert store.stats.hits == 1
        assert_block(loaded)
        assert_same_planes(loaded, built)


def _capture_sums(monkeypatch):
    """Copies of the raw per-cell sums each build accumulates, before
    ``build`` normalizes them in place."""
    captured = []
    original = PHHistogram._accumulate

    def capturing(grid, rects, stats):
        avg_span = original(grid, rects, stats)
        captured.append(tuple(s.copy() for s in stats))
        return avg_span

    monkeypatch.setattr(PHHistogram, "_accumulate", staticmethod(capturing))
    return captured


def _reference_normalize(sums, cell_area):
    """The per-plane normalization ``build`` used before the block, verbatim."""
    num, area_sum, w_sum, h_sum, num_i, area_sum_i, w_sum_i, h_sum_i = sums
    with np.errstate(invalid="ignore"):
        occupied = num > 0
        denom = np.maximum(num, 1.0)
        xavg = np.where(occupied, w_sum / denom, 0.0)
        yavg = np.where(occupied, h_sum / denom, 0.0)
        occupied = num_i > 0
        denom = np.maximum(num_i, 1.0)
        xavg_i = np.where(occupied, w_sum_i / denom, 0.0)
        yavg_i = np.where(occupied, h_sum_i / denom, 0.0)
    cov = area_sum / cell_area
    cov_i = area_sum_i / cell_area
    return (num, cov, xavg, yavg, num_i, cov_i, xavg_i, yavg_i)


def _reference_pairs(a, b, *, corrected=True):
    """Equation 3 as one fresh temporary per ufunc, verbatim."""
    cell_area = a.grid.cell_area

    def case(n1, c1, x1, y1, n2, c2, x2, y2) -> np.ndarray:
        return n1 * c2 + c1 * n2 + n1 * n2 * (x1 * y2 + y1 * x2) / cell_area

    sa = case(a.num, a.cov, a.xavg, a.yavg, b.num, b.cov, b.xavg, b.yavg)
    sb = case(a.num, a.cov, a.xavg, a.yavg, b.num_i, b.cov_i, b.xavg_i, b.yavg_i)
    sc = case(a.num_i, a.cov_i, a.xavg_i, a.yavg_i, b.num, b.cov, b.xavg, b.yavg)
    sd = case(a.num_i, a.cov_i, a.xavg_i, a.yavg_i, b.num_i, b.cov_i, b.xavg_i, b.yavg_i)
    span_correction = (a.avg_span + b.avg_span) / 2.0
    pairs = float(sa.sum() + sb.sum() + sc.sum() + sd.sum() / span_correction)
    if corrected:
        return pairs
    sd_sum = float(sd.sum())
    return pairs - sd_sum / span_correction + sd_sum


class TestInPlaceArithmetic:
    @pytest.mark.parametrize("seed", [5, 23])
    def test_normalization_matches_masked_expressions(self, seed, monkeypatch):
        captured = _capture_sums(monkeypatch)
        empty_cells = 0
        for ds in mixed(seed):
            for level in LEVELS:
                hist = PHHistogram.build(ds, level)
                expected = _reference_normalize(captured.pop(), hist.grid.cell_area)
                for name, plane in zip(PH_ORDER, expected):
                    assert getattr(hist, name).tobytes() == plane.tobytes(), (ds.name, level, name)
                empty_cells += int((hist.num == 0).sum())
        assert empty_cells > 0

    @pytest.mark.parametrize("seed", [5, 23])
    def test_ph_combine_matches_fresh_temporaries(self, seed):
        for level in LEVELS:
            hists = [PHHistogram.build(ds, level) for ds in mixed(seed)]
            for a in hists:
                for b in hists:
                    assert a.estimate_pairs(b) == _reference_pairs(a, b)
                    uncorrected = _reference_pairs(a, b, corrected=False)
                    assert a.estimate_pairs_uncorrected(b) == uncorrected

    @pytest.mark.parametrize("seed", [5, 23])
    def test_gh_combine_matches_fresh_temporaries(self, seed):
        for level in LEVELS:
            hists = [GHHistogram.build(ds, level) for ds in mixed(seed)]
            for a in hists:
                for b in hists:
                    expected = float((a.c * b.o + b.c * a.o + a.h * b.v + b.h * a.v).sum())
                    assert a.estimate_intersection_points(b) == expected
