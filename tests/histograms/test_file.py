"""Unit tests for histogram-file persistence."""

import io

import numpy as np
import pytest

from repro.datasets import SpatialDataset
from repro.histograms import (
    BasicGHHistogram,
    GHHistogram,
    PHHistogram,
    histogram_from_bytes,
    histogram_to_bytes,
    load_histogram,
    save_histogram,
)
from repro.geometry import Rect
from tests.conftest import random_rects


@pytest.fixture
def dataset(rng):
    return SpatialDataset("d", random_rects(rng, 150), Rect.unit())


HIST_CLASSES = [PHHistogram, GHHistogram, BasicGHHistogram]


@pytest.mark.parametrize("hist_cls", HIST_CLASSES)
class TestRoundTrip:
    def test_file_round_trip(self, dataset, tmp_path, hist_cls):
        hist = hist_cls.build(dataset, 3)
        path = save_histogram(hist, tmp_path / "h.npz")
        loaded = load_histogram(path)
        assert type(loaded) is hist_cls
        assert loaded.grid == hist.grid
        assert loaded.count == hist.count
        for name, arr in hist.cell_arrays().items() if hasattr(hist, "cell_arrays") else []:
            assert np.array_equal(loaded.cell_arrays()[name], arr)

    def test_bytes_round_trip(self, dataset, hist_cls):
        hist = hist_cls.build(dataset, 2)
        blob = histogram_to_bytes(hist)
        loaded = histogram_from_bytes(blob)
        assert type(loaded) is hist_cls
        assert loaded.count == hist.count

    def test_estimates_survive_round_trip(self, dataset, tmp_path, hist_cls):
        h1 = hist_cls.build(dataset, 3)
        h2 = hist_cls.build(dataset, 3)
        before = h1.estimate_selectivity(h2)
        loaded = load_histogram(save_histogram(h1, tmp_path / "x.npz"))
        assert loaded.estimate_selectivity(h2) == before

    def test_non_unit_extent_survives(self, rng, tmp_path, hist_cls):
        extent = Rect(-3, 2, 9, 11)
        ds = SpatialDataset("w", random_rects(rng, 40, extent=extent), extent)
        hist = hist_cls.build(ds, 2)
        loaded = load_histogram(save_histogram(hist, tmp_path / "w.npz"))
        assert loaded.grid.extent == extent


class TestPHSpecifics:
    def test_avg_span_preserved(self, dataset, tmp_path):
        hist = PHHistogram.build(dataset, 4)
        loaded = load_histogram(save_histogram(hist, tmp_path / "ph.npz"))
        assert loaded.avg_span == hist.avg_span

    def test_all_eight_arrays_preserved(self, dataset, tmp_path):
        hist = PHHistogram.build(dataset, 3)
        loaded = load_histogram(save_histogram(hist, tmp_path / "ph8.npz"))
        for name, arr in hist.cell_arrays().items():
            assert np.array_equal(loaded.cell_arrays()[name], arr), name


class TestErrors:
    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            histogram_to_bytes(object())  # type: ignore[arg-type]

    def test_unknown_kind_rejected(self, dataset, tmp_path):
        hist = GHHistogram.build(dataset, 1)
        path = save_histogram(hist, tmp_path / "g.npz")
        blob = dict(np.load(path, allow_pickle=False))
        blob["kind"] = np.str_("mystery")
        np.savez(path, **blob)
        with pytest.raises(ValueError, match="unknown histogram kind"):
            load_histogram(path)

    @pytest.mark.parametrize("version", [None, 1, 2])
    def test_unversioned_or_older_file_rejected(self, dataset, tmp_path, version):
        """Unversioned files stacked GH planes c, o, h, v; decoding one
        under the c, h, o, v order would swap O and H, so it is refused.
        Version 2 held PH's Table 1 averages, which version 3 would read
        as sums; every file older than the current version is refused."""
        hist = GHHistogram.build(dataset, 2)
        path = save_histogram(hist, tmp_path / "old.npz")
        blob = dict(np.load(path, allow_pickle=False))
        assert int(blob["version"]) == 3
        if version is None:
            del blob["version"]
        else:
            blob["version"] = np.int64(version)
        np.savez(path, **blob)
        with pytest.raises(ValueError, match="version"):
            load_histogram(path)
        buf = io.BytesIO()
        np.savez(buf, **blob)
        with pytest.raises(ValueError, match="version"):
            histogram_from_bytes(buf.getvalue())

    def test_suffix_added(self, dataset, tmp_path):
        hist = GHHistogram.build(dataset, 1)
        path = save_histogram(hist, tmp_path / "bare")
        assert path.suffix == ".npz"
        assert path.exists()


class TestSchemeTable:
    def test_schemes_and_stat_planes_agree(self, dataset):
        import repro.eval
        from repro.histograms.file import HISTOGRAM_SCHEMES, STAT_PLANES, histogram_parts

        assert repro.eval.HISTOGRAM_SCHEMES is HISTOGRAM_SCHEMES
        assert set(HISTOGRAM_SCHEMES) == set(STAT_PLANES)
        for scheme, hist_cls in HISTOGRAM_SCHEMES.items():
            scalars, stats = histogram_parts(hist_cls.build(dataset, 2))
            assert scalars["kind"] == scheme
            assert stats.shape[0] == len(STAT_PLANES[scheme])
