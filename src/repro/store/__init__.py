"""repro.store — the persistent memory-mapped artifact catalog.

The paper's economics ("histograms are cheap *once built*") only hold
if built artifacts survive the process that built them.  This package
gives every estimator artifact — GH/PH/basic-GH histogram files and
packed :class:`~repro.rtree.flat.FlatRTree` structures — a durable,
content-addressed home on disk:

* :class:`ArtifactCatalog` — one directory per artifact (raw ``.npy``
  payloads + a JSON manifest with dtype/shape/params/checksums), keyed
  by the same :mod:`repro.perf.fingerprint` identities the in-memory
  caches use; loads are zero-copy read-only ``np.memmap`` views (the
  ``.npy`` header is compared as bytes, not parsed) and publishes are
  crash-atomic (stage in ``tmp/``, fsync, rename);
* an optional **L2 tier** under
  :class:`~repro.perf.cache.HistogramCache` /
  :class:`~repro.perf.cache.FlatTreeCache` (L1 miss → catalog mmap →
  build + publish; a load equals a cold build);
* **read-only attach** — ``ArtifactCatalog(root, read_only=True)``
  serves prebuilt histograms without ever writing, so many processes
  can share one prewarmed root and its page cache;
* a CLI — ``python -m repro.store prewarm|list|verify|evict`` — to
  build registry artifacts offline, audit checksums (and optionally
  rebuild-and-compare), and trim to a byte budget LRU-first.

``tests/store/test_warm_start.py`` gates the payoff: a warm open beats
a cold build, and a warm resolve sweep builds nothing.
"""

from .catalog import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    ArtifactCatalog,
    StoreEntry,
    hist_entry_name,
    tree_entry_name,
)

__all__ = [
    "ArtifactCatalog",
    "StoreEntry",
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "hist_entry_name",
    "tree_entry_name",
]
