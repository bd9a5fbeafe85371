"""Content fingerprints for datasets — the cache's identity notion.

The histogram cache must key on *what the data is*, not on what it is
called: two :class:`~repro.datasets.base.SpatialDataset` objects with
the same rectangles and extent must share cache entries, and any change
to the geometry must produce a different key.

Each coordinate array is folded with a vectorized multiply-mix: the raw
float64 bit patterns are multiplied by a fixed pseudo-random odd-weight
sequence and summed modulo 2⁶⁴ (two numpy passes, memory-bandwidth
bound — ~10× faster than feeding the buffers to a cryptographic hash).
Because every weight is odd (invertible mod 2⁶⁴), changing any single
element changes its term and hence the sum — single mutations are
detected *deterministically*; independent multi-element changes collide
with probability ~2⁻⁶⁴.  The four per-array accumulators, the length,
and the declared extent are then digested with BLAKE2b into a stable
128-bit hex key.  The weight sequence is seeded, so fingerprints are
reproducible across processes.

**Token-memoized identity.**  The fold is O(n) over the coordinates,
which made it the dominant cost of every warm-cache lookup.  Datasets
now carry a monotonic :class:`~repro.datasets.base.MutationToken`
bumped by every sanctioned write path, so :func:`dataset_fingerprint`
memoizes the digest per ``(dataset identity, token version)`` and a
warm lookup is O(1).  The contract shift is deliberate: in-place
mutations are detected through :meth:`SpatialDataset.mark_mutated`
rather than by rehashing on every call.  Unsanctioned mutations (arrays
edited without a bump) are caught by an **audit**: every
``_AUDIT_INTERVAL`` memo hits — and on every hit taken while a
fault-injection hook is active, so chaos suites exercise it constantly
— the digest is recomputed from the coordinates and compared;
a mismatch raises :class:`~repro.errors.InvalidDatasetError` naming the
violated contract.  :func:`dataset_fingerprint_uncached` is the audit
fold, kept public as the rehash-every-call baseline.

The dataset *name* is deliberately excluded — renaming a dataset keeps
its cached histograms valid.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from ..datasets import SpatialDataset
from ..errors import InvalidDatasetError
from ..geometry import RectArray
from ..runtime import active_scope

__all__ = [
    "dataset_fingerprint",
    "dataset_fingerprint_uncached",
    "peek_fingerprint",
    "audit_fingerprint",
    "rects_fingerprint",
]

#: 128-bit digests: collision-safe for any realistic catalog size.
_DIGEST_BYTES = 16

#: Seed for the mixing weights — fixed so fingerprints are stable
#: across processes and sessions.
_WEIGHT_SEED = 0x5EED_F1D5

#: Recompute-and-compare once per this many memo hits (approximate —
#: the counter is racy by design; audit frequency is best-effort).
_AUDIT_INTERVAL = 1024

_weights = np.empty(0, dtype=np.uint64)

_hits_since_audit = 0


def _mix_weights(n: int) -> np.ndarray:
    """The first ``n`` mixing weights (grown geometrically, cached).

    Concurrent growth is benign: the sequence is deterministic, so
    racing threads compute identical buffers.
    """
    global _weights
    if len(_weights) < n:
        size = 1 << max(10, (n - 1).bit_length())
        rng = np.random.default_rng(_WEIGHT_SEED)
        _weights = rng.integers(0, 1 << 64, size, dtype=np.uint64) | np.uint64(1)
    return _weights[:n]


def dataset_fingerprint(dataset: SpatialDataset) -> str:
    """Hex digest identifying the dataset's geometry and universe.

    Memoized per ``(dataset identity, token version)``: the O(n) fold
    runs once per mutation state, then every warm call returns the
    stored digest.  The token version is captured *before* folding, so
    a concurrent ``mark_mutated`` can at worst discard the memo — never
    publish a stale digest under a new version.
    """
    global _hits_since_audit
    memo = dataset._cached_fingerprint()
    if memo is not None:
        _hits_since_audit += 1
        scope = active_scope()
        if _hits_since_audit >= _AUDIT_INTERVAL or (
            scope is not None and scope.hook is not None
        ):
            _hits_since_audit = 0
            return audit_fingerprint(dataset)
        return memo
    version = dataset.token.version
    digest = dataset_fingerprint_uncached(dataset)
    dataset._store_fingerprint(version, digest)
    return digest


def peek_fingerprint(dataset: SpatialDataset) -> "str | None":
    """The memoized digest, or None — never folds the coordinates.

    The serving fast lane runs on the event loop, where an O(n) fold
    would stall every other request; a cold memo simply means "take the
    slow path", which computes (and memoizes) the digest off-loop.

    A bare :meth:`~repro.datasets.base.SpatialDataset.mark_mutated`
    leaves the memo cold until some read folds it.  After
    ``apply_updates(..., dataset=, republish_key=)`` this returns the
    key's digest at once: maintenance folds the edited arrays on the
    write path and refuses a key that does not name them.
    """
    return dataset._cached_fingerprint()


def audit_fingerprint(dataset: SpatialDataset) -> str:
    """Recompute the digest and verify it against the memo.

    Returns the recomputed digest.  A mismatch means the coordinate
    arrays were edited without :meth:`SpatialDataset.mark_mutated` —
    every cache keyed on the stale digest is silently wrong — so it
    raises :class:`InvalidDatasetError` rather than repair quietly.
    """
    version = dataset.token.version
    memo = dataset._cached_fingerprint()
    digest = dataset_fingerprint_uncached(dataset)
    if memo is not None and memo != digest:
        raise InvalidDatasetError(
            f"dataset {dataset.name!r} was mutated in place without "
            f"mark_mutated(): memoized fingerprint {memo} != recomputed "
            f"{digest} at token version {dataset.token.version}"
        )
    dataset._store_fingerprint(version, digest)
    return digest


def _fold(rects: RectArray, prefix: bytes, suffix: bytes) -> str:
    """BLAKE2b over ``prefix``, the length, ``suffix`` and the four
    per-array multiply-mix accumulators, in that order."""
    n = len(rects)
    weights = _mix_weights(n)
    digest = hashlib.blake2b(prefix, digest_size=_DIGEST_BYTES)
    digest.update(struct.pack("<q", n))
    digest.update(suffix)
    for coords in (rects.xmin, rects.ymin, rects.xmax, rects.ymax):
        bits = np.ascontiguousarray(coords, dtype=np.float64).view(np.uint64)
        acc = int((bits * weights).sum(dtype=np.uint64))
        digest.update(struct.pack("<Q", acc))
    return digest.hexdigest()


def dataset_fingerprint_uncached(dataset: SpatialDataset) -> str:
    """The O(n) multiply-mix fold — the memo's ground truth."""
    return _fold(dataset.rects, b"", struct.pack("<4d", *dataset.extent.as_tuple()))


def rects_fingerprint(rects: RectArray) -> str:
    """Hex digest identifying a bare rectangle array's geometry.

    Same multiply-mix fold as :func:`dataset_fingerprint` but without an
    extent (a rect array has none) and under a distinct domain tag, so a
    dataset and its own rect array can never collide in a shared map.
    The tree cache keys on this: sample R-trees are built from plain
    rect arrays, not datasets.  Not memoized — rect arrays carry no
    token, and the sampling paths that use this redraw per call anyway.
    """
    return _fold(rects, b"rects", b"")
