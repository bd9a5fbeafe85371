"""PH files as one plane block: every construction path yields it.

A :class:`PHHistogram` keeps its eight per-cell planes as the rows of
one C-contiguous ``(8, cells)`` array, ``planes``, in
``STAT_PLANES["ph"]`` order: ``num, xsum, cov, ysum`` per group, with
Table 1's averages held as sums in cell units.  ``build`` scales the
accumulated sums in place, a combine runs chunked dot products over the
groups' halves, and ``histogram_parts`` persists the block as is.  Each
test here builds a histogram one way and checks that invariant, or
checks the in-place arithmetic against fresh-temporary expressions
written out plane by plane and dot by dot.
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

#: The planes in the order version-3 files and store entries stack them,
#: written out rather than read from ``STAT_PLANES``.
PH_ORDER = ("num", "xsum", "cov", "ysum", "num_i", "xsum_i", "cov_i", "ysum_i")
#: Table 1's order, which version-2 files and store entries stacked.
TABLE1_ORDER = ("num", "cov", "xavg", "yavg", "num_i", "cov_i", "xavg_i", "yavg_i")
#: The kernel's chunk: floats per BLAS dot.
CHUNK = 8192
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
        """A version-2 PH file (this payload builder is its writer,
        verbatim) holds Table 1 averages where version 3 holds sums, so
        it no longer decodes: loading it raises instead of reading an
        average as a sum."""
        hist = PHHistogram.build(dataset, 4)
        payload = {
            "version": np.int64(2),
            "kind": np.str_("ph"),
            "level": np.int64(hist.grid.level),
            "extent": np.array(hist.grid.extent.as_tuple(), dtype=np.float64),
            "count": np.int64(hist.count),
            "stats": np.stack([getattr(hist, plane) for plane in TABLE1_ORDER]),
            "avg_span": np.float64(hist.avg_span),
        }
        np.savez(tmp_path / "v2.npz", **payload)
        with pytest.raises(ValueError, match="version 2"):
            load_histogram(tmp_path / "v2.npz")
        buf = io.BytesIO()
        np.savez(buf, **payload)
        with pytest.raises(ValueError, match="version 2"):
            histogram_from_bytes(buf.getvalue())

    def test_version_two_store_entry_decodes(self, dataset, tmp_path, monkeypatch):
        """A version-2 PH store entry (Table 1 planes stacked plane by
        plane, the encoder before the sums, verbatim) reads as a miss;
        the cache rebuilds, republishes, and answers like a cold build."""

        def table1_encoder(hist):
            scalars, _ = histogram_parts(hist)
            stats = np.stack([getattr(hist, plane) for plane in TABLE1_ORDER])
            return scalars, {"stats": np.ascontiguousarray(stats)}

        store = ArtifactCatalog(tmp_path / "store")
        key = HistogramCache.key_for(dataset, "ph", 5)
        built = PHHistogram.build(dataset, 5)
        monkeypatch.setattr(catalog_module, "encode_histogram", table1_encoder)
        assert store.put_histogram(key, built)
        monkeypatch.undo()
        manifest_path = store.root / "objects" / hist_entry_name(key) / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = 2
        manifest_path.write_text(json.dumps(manifest))
        assert store.load_histogram(key) is None
        assert store.stats.hits == 0
        hist, source = HistogramCache(store=store).resolve(dataset, "ph", 5)
        assert source == "build"
        assert_same_planes(hist, built)
        republished = store.load_histogram(key)
        assert_block(republished)
        assert_same_planes(republished, built)


def _capture_sums(monkeypatch):
    """Copies of the raw per-cell sums each build accumulates, before
    ``build`` scales them in place."""
    captured = []
    original = PHHistogram._accumulate

    def capturing(grid, rects, stats):
        avg_span = original(grid, rects, stats)
        captured.append(tuple(s.copy() for s in stats))
        return avg_span

    monkeypatch.setattr(PHHistogram, "_accumulate", staticmethod(capturing))
    return captured


def _reference_scale(sums, grid):
    """The per-cell planes from the raw sums, one fresh temporary each."""
    num, w_sum, area_sum, h_sum, num_i, w_sum_i, area_sum_i, h_sum_i = sums
    return (
        num, w_sum / grid.cell_width, area_sum / grid.cell_area, h_sum / grid.cell_height,
        num_i, w_sum_i / grid.cell_width, area_sum_i / grid.cell_area, h_sum_i / grid.cell_height,
    )


def _masked_averages(sums):
    """Table 1's averages as the build computed them before the sums
    layout, verbatim: width and height sums over Num, 0 where empty."""
    num, w_sum, _, h_sum, num_i, w_sum_i, _, h_sum_i = sums
    with np.errstate(invalid="ignore"):
        occupied = num > 0
        denom = np.maximum(num, 1.0)
        xavg = np.where(occupied, w_sum / denom, 0.0)
        yavg = np.where(occupied, h_sum / denom, 0.0)
        occupied = num_i > 0
        denom = np.maximum(num_i, 1.0)
        xavg_i = np.where(occupied, w_sum_i / denom, 0.0)
        yavg_i = np.where(occupied, h_sum_i / denom, 0.0)
    return {"xavg": xavg, "yavg": yavg, "xavg_i": xavg_i, "yavg_i": yavg_i}


def _reference_dot(x: np.ndarray, y: np.ndarray) -> np.float64:
    """``x·y`` as one ``np.dot`` per chunk of ``CHUNK`` floats, the
    partials summed by a 1-D sum."""
    starts = range(0, len(x), CHUNK)
    return np.array([np.dot(x[k : k + CHUNK], y[k : k + CHUNK]) for k in starts]).sum()


def _reference_cross(a: np.ndarray, b: np.ndarray) -> np.float64:
    """``x_a·y_b + x_b·y_a`` for two four-row groups, halves ``x`` = rows
    0-1 and ``y`` = rows 2-3, each flattened."""
    xa, ya, xb, yb = a[:2].ravel(), a[2:].ravel(), b[:2].ravel(), b[2:].ravel()
    return _reference_dot(xa, yb) + _reference_dot(xb, ya)


def _reference_pairs(a, b, *, corrected=True):
    """Equation 3 with each case written out as chunked dots."""
    cont, isect = a.planes[:4], a.planes[4:]
    other_cont, other_isect = b.planes[:4], b.planes[4:]
    sa = _reference_cross(cont, other_cont)
    sb = _reference_cross(cont, other_isect)
    sc = _reference_cross(isect, other_cont)
    sd = _reference_cross(isect, other_isect)
    span_correction = (a.avg_span + b.avg_span) / 2.0 if corrected else 1.0
    return float(sa + sb + sc + sd / span_correction)


class TestInPlaceArithmetic:
    @pytest.mark.parametrize("seed", [5, 23])
    def test_normalization_matches_masked_expressions(self, seed, monkeypatch):
        """The stored planes equal the sums scaled by fresh temporaries,
        and the derived averages equal the masked Table 1 expressions to
        within rounding (a scale by the cell size and back)."""
        captured = _capture_sums(monkeypatch)
        empty_cells = 0
        for ds in mixed(seed):
            for level in LEVELS:
                hist = PHHistogram.build(ds, level)
                sums = captured.pop()
                expected = _reference_scale(sums, hist.grid)
                for name, plane in zip(PH_ORDER, expected):
                    assert getattr(hist, name).tobytes() == plane.tobytes(), (ds.name, level, name)
                for name, average in _masked_averages(sums).items():
                    np.testing.assert_allclose(getattr(hist, name), average, rtol=5e-16, atol=0)
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
                    expected = float(_reference_cross(a.planes, b.planes))
                    assert a.estimate_intersection_points(b) == expected
