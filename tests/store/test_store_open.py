"""Store opens map a payload only when its bytes match the manifest.

A load compares the payload's ``.npy`` header, as bytes, against the
header numpy writes for the manifest's dtype and shape, checks the file
size against ``file_bytes``, and maps the rest read-only.  Anything
else is a counted corrupt miss that the cache rebuilds.
"""

import json

import numpy as np
import pytest

from repro.datasets import SpatialDataset
from repro.histograms import GHHistogram
from repro.perf import HistogramCache
from repro.store import MANIFEST_NAME, ArtifactCatalog, hist_entry_name
from tests.conftest import random_rects


@pytest.fixture
def dataset(rng):
    return SpatialDataset("open", random_rects(rng, 150))


@pytest.fixture
def published(tmp_path, dataset):
    """A writable catalog holding one GH level-5 entry, and its paths."""
    catalog = ArtifactCatalog(tmp_path / "store")
    key = HistogramCache.key_for(dataset, "gh", 5)
    assert catalog.put_histogram(key, GHHistogram.build(dataset, 5))
    entry = catalog.root / "objects" / hist_entry_name(key)
    return catalog, key, entry / "stats.npy", entry / MANIFEST_NAME


def _rewrite_header(payload, dtype, shape):
    """Replace the payload's header by numpy's header for ``dtype`` and
    ``shape``; the file keeps its size and its data bytes."""
    raw = payload.read_bytes()
    with payload.open("wb") as fh:
        np.lib.format.write_array_header_1_0(
            fh,
            {"descr": np.lib.format.dtype_to_descr(np.dtype(dtype)),
             "fortran_order": False, "shape": shape},
        )
        header_len = fh.tell()
        fh.write(raw[header_len:])
    assert payload.stat().st_size == len(raw)


@pytest.mark.parametrize(
    "dtype,shape",
    [("float64", (8, 1024)), ("float64", (4 * 1024,)), ("int64", (4, 1024)),
     ("<f4", (8, 1024))],
    ids=["rows", "flat", "dtype", "width"],
)
def test_foreign_header_at_the_same_size_is_a_corrupt_miss(published, dtype, shape):
    catalog, key, payload, _ = published
    _rewrite_header(payload, dtype, shape)
    assert catalog.load_histogram(key) is None
    assert catalog.stats.corrupt_detected == 1
    assert catalog.stats.hits == 0


def test_foreign_header_fails_verify(published):
    catalog, key, payload, _ = published
    _rewrite_header(payload, "float64", (8, 1024))
    problems = catalog.verify_entry(hist_entry_name(key))
    assert problems == ["stats: header does not match manifest"]


def test_header_padded_differently_is_rebuilt(published, dataset):
    """Same dtype and shape, but header bytes numpy would not write: read
    as corrupt, and the cache rebuilds an equal file."""
    catalog, key, payload, _ = published
    raw = payload.read_bytes()
    header_len = raw.index(b"\n") + 1
    padded = raw[: header_len - 1].replace(b"'shape': (4, 1024)", b"'shape':(4,1024)  ")
    assert len(padded) == header_len - 1 and padded != raw[: header_len - 1]
    payload.write_bytes(padded + raw[header_len - 1:])
    hist, source = HistogramCache(store=catalog).resolve(dataset, "gh", 5)
    assert source == "build"
    assert catalog.stats.corrupt_detected == 1
    assert np.array_equal(hist.planes, GHHistogram.build(dataset, 5).planes)


@pytest.mark.parametrize("change", [-8, 8], ids=["truncated", "extended"])
def test_payload_of_another_size_is_a_corrupt_miss(published, change):
    catalog, key, payload, _ = published
    raw = payload.read_bytes()
    payload.write_bytes(raw[:change] if change < 0 else raw + bytes(change))
    assert catalog.verify_entry(hist_entry_name(key)) == [
        f"stats: payload is {len(raw) + change} bytes, manifest says {len(raw)}"
    ]
    assert catalog.load_histogram(key) is None
    assert catalog.stats.corrupt_detected == 1


def test_manifest_shape_disagreeing_with_the_file_is_a_corrupt_miss(published):
    catalog, key, _, manifest_path = published
    manifest = json.loads(manifest_path.read_text())
    manifest["arrays"]["stats"]["shape"] = [4, 512]
    manifest_path.write_text(json.dumps(manifest))
    assert catalog.load_histogram(key) is None
    assert catalog.stats.corrupt_detected == 1


def test_manifest_naming_an_object_dtype_is_never_mapped(published):
    catalog, key, payload, manifest_path = published
    _rewrite_header(payload, "O", (4, 1024))
    manifest = json.loads(manifest_path.read_text())
    manifest["arrays"]["stats"]["dtype"] = "object"
    manifest_path.write_text(json.dumps(manifest))
    assert catalog.load_histogram(key) is None
    assert catalog.stats.corrupt_detected == 1


def test_loads_are_read_only_memmaps(published):
    catalog, key, payload, _ = published
    for reader in (catalog, ArtifactCatalog(catalog.root, read_only=True)):
        hist = reader.load_histogram(key)
        assert isinstance(hist.planes, np.memmap)
        assert hist.planes.mode == "r"
        assert not hist.planes.flags.writeable
        with pytest.raises(ValueError):
            hist.planes[0, 0] = 1.0
        assert np.array_equal(hist.planes, np.load(payload))
