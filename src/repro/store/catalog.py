"""The content-addressed, memory-mapped artifact catalog.

One :class:`ArtifactCatalog` owns a directory tree::

    <root>/
      objects/<entry-name>/          # one dir per published artifact
        manifest.json                # dtype/shape/params/checksums (written last)
        stats.npy | entry_coords.npy | level0_planes.npy | ...
      tmp/                           # staging; swept on writable open

Entry names are content-addressed off the existing
:mod:`repro.perf.fingerprint` keys — :class:`~repro.perf.cache.CacheKey`
for histograms, :class:`~repro.perf.cache.TreeCacheKey` for flat trees —
so a mutated dataset can never collide with its former artifact and a
renamed one shares it.  Histogram names embed scheme and level in clear
(``gh.h05.<group>``) with the group digest covering fingerprint+extent.

**Atomic publish.**  Writers stage the payload in a fresh directory
under ``tmp/`` (same filesystem), fsync every file, write the manifest
*last*, fsync the staging directory, then ``os.rename`` it into
``objects/`` and fsync the parent.  POSIX rename is atomic, so a reader
can only ever observe (a) no entry or (b) a complete entry whose
manifest was durably written after its payload — a crash at any point
leaves garbage in ``tmp/`` (swept by the next writable open), never a
readable partial artifact.  Concurrent publishers of the same key race
benignly: first rename wins, the loser discards its staging dir.

**Zero-copy loads.**  ``np.load(mmap_mode="r")`` maps payload files
read-only; processes touching the same entries share page cache
instead of heap copies.  Loads cheaply cross-check manifest
``file_bytes`` against ``os.stat`` and dtype/shape against the mapped
header; full checksums are verified by ``python -m repro.store verify``.
Any mismatch counts ``corrupt_detected``, discards the entry, and
degrades to a miss — the caller rebuilds and republishes.

Counters live in one :class:`~repro.obs.Counters` (the stats shape of
every serving layer) and are thread-safe; the filesystem is the source
of truth for the entry set, so many processes may read while one
publishes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Container, Mapping

import numpy as np

from ..errors import ArtifactIntegrityError
from ..histograms.file import HISTOGRAM_SCHEMES, Histogram
from ..obs import Counters, hit_rate
from ..perf.cache import _TREE_LOADERS, CacheKey, TreeCacheKey
from ..runtime import checkpoint
from .codec import (
    TREE_KIND,
    decode_histogram,
    decode_tree,
    encode_histogram,
    encode_tree,
)

if TYPE_CHECKING:
    from ..rtree import FlatRTree

__all__ = [
    "ArtifactCatalog",
    "StoreEntry",
    "FORMAT_VERSION",
    "MANIFEST_NAME",
    "hist_entry_name",
    "tree_entry_name",
]

#: Manifest schema version; bump on any incompatible layout change.
FORMAT_VERSION = 1

#: The per-entry manifest file, written last inside the staging dir.
MANIFEST_NAME = "manifest.json"


def _digest(*parts: object) -> str:
    """16-hex-char BLAKE2b over the repr of ``parts`` (dirname component)."""
    return hashlib.blake2b(repr(parts).encode("utf-8"), digest_size=8).hexdigest()


def hist_entry_name(key: CacheKey) -> str:
    """Catalog directory name for a histogram key."""
    if key.scheme not in HISTOGRAM_SCHEMES:
        raise ValueError(
            f"unknown scheme {key.scheme!r}; choose from {sorted(HISTOGRAM_SCHEMES)}"
        )
    if not 0 <= key.level <= 99:
        raise ValueError(f"level out of catalog range [0, 99]: {key.level}")
    group = _digest("hist", key.fingerprint, key.extent)
    return f"{key.scheme}.h{key.level:02d}.{group}"


def tree_entry_name(key: TreeCacheKey) -> str:
    """Catalog directory name for a flat-tree key."""
    if key.packing not in _TREE_LOADERS:
        raise ValueError(
            f"unknown packing {key.packing!r}; choose from {sorted(_TREE_LOADERS)}"
        )
    if key.max_entries < 2:
        raise ValueError(f"max_entries must be >= 2, got {key.max_entries}")
    return f"tree.{key.packing}.m{key.max_entries}.{_digest('tree', key.fingerprint)}"


def _hist_key_json(key: CacheKey) -> dict[str, object]:
    return {
        "fingerprint": key.fingerprint,
        "scheme": key.scheme,
        "level": int(key.level),
        "extent": [float(x) for x in key.extent],
    }


def _tree_key_json(key: TreeCacheKey) -> dict[str, object]:
    return {
        "fingerprint": key.fingerprint,
        "packing": key.packing,
        "max_entries": int(key.max_entries),
    }


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@dataclass(frozen=True, slots=True)
class StoreEntry:
    """One published artifact as listed from disk."""

    name: str  #: catalog directory name
    kind: str  #: "gh" / "ph" / "gh_basic" / "flat_tree"
    nbytes: int  #: payload + manifest bytes on disk
    last_used: float  #: manifest mtime (touched by loads) — LRU recency
    key: dict[str, object]  #: the content-addressed key fields
    params: dict[str, object]  #: decode parameters (level, extent, ...)
    source: dict[str, object] | None  #: provenance recorded at publish


class ArtifactCatalog:
    """A persistent catalog of estimator artifacts under one root.

    Parameters
    ----------
    root:
        Directory holding ``objects/`` and ``tmp/`` (created when
        writable).  Many processes may open the same root; the atomic
        publish protocol keeps concurrent readers consistent.
    read_only:
        Open without write access: never creates directories, sweeps
        nothing, publishes become no-ops returning ``False``, corrupt
        entries are counted but left in place, and loads skip the
        recency touch.  This is how the store CLI's ``list`` and
        ``verify`` commands attach.

    **Memmap lifetime.**  Loaded artifacts wrap read-only memmap views.
    Each view pins its backing file via its own descriptor, so (on
    POSIX) it stays valid even after the entry is evicted — but the
    portable contract is the conservative one: treat views as borrowed
    from this handle and copy anything that must outlive it.
    """

    def __init__(self, root: str | os.PathLike[str], *, read_only: bool = False) -> None:
        self.root = Path(root)
        self.read_only = bool(read_only)
        self.stats = Counters(
            "hits",
            "misses",
            "publishes",
            "corrupt_detected",  # loads rejected by an integrity check
            "evictions",
            "invalidations",  # explicit removals (maintenance, CLI)
            derived={"hit_rate": hit_rate},
        )
        self._objects = self.root / "objects"
        self._tmp = self.root / "tmp"
        self._seq = itertools.count()
        if not self.read_only:
            self._objects.mkdir(parents=True, exist_ok=True)
            self._tmp.mkdir(parents=True, exist_ok=True)
            self._sweep_tmp()

    def __repr__(self) -> str:
        mode = "ro" if self.read_only else "rw"
        return f"ArtifactCatalog({str(self.root)!r}, {mode})"

    # -- loads ----------------------------------------------------------
    def load_histogram(self, key: CacheKey) -> Histogram | None:
        """The mmap-backed histogram for ``key``, or ``None`` on a miss.

        A corrupt entry (torn payload, foreign key, bad params) counts
        ``corrupt_detected``, is discarded (when writable), and reads as
        a miss so the caller rebuilds.
        """
        name = hist_entry_name(key)
        try:
            found = self._read_entry(name, HISTOGRAM_SCHEMES, _hist_key_json(key))
            if found is None:
                self.stats.add("misses")
                return None
            manifest, arrays = found
            hist = decode_histogram(_params_of(manifest), arrays)
        except ArtifactIntegrityError:
            self._note_corrupt(name)
            return None
        self._note_hit(name)
        return hist

    def load_tree(self, key: TreeCacheKey) -> "FlatRTree | None":
        """The mmap-backed flat tree for ``key``, or ``None`` on a miss."""
        name = tree_entry_name(key)
        try:
            found = self._read_entry(name, (TREE_KIND,), _tree_key_json(key))
            if found is None:
                self.stats.add("misses")
                return None
            manifest, arrays = found
            tree = decode_tree(_params_of(manifest), arrays)
        except ArtifactIntegrityError:
            self._note_corrupt(name)
            return None
        self._note_hit(name)
        return tree

    # -- publishes ------------------------------------------------------
    def put_histogram(
        self,
        key: CacheKey,
        hist: Histogram,
        *,
        source: Mapping[str, object] | None = None,
    ) -> bool:
        """Atomically publish ``hist`` under ``key``.

        ``source`` (e.g. registry dataset name + scale) is recorded in
        the manifest so ``verify --rebuild`` can re-derive the artifact.
        Returns ``True`` once the entry exists (published now or
        already there), ``False`` from a read-only catalog.
        """
        params, arrays = encode_histogram(hist)
        if (
            params.get("kind") != key.scheme
            or params.get("level") != key.level
            or params.get("extent") != [float(x) for x in key.extent]
        ):
            raise ValueError(
                f"histogram ({params.get('kind')}, level {params.get('level')}) "
                f"does not match key ({key.scheme}, level {key.level})"
            )
        return self._publish(
            hist_entry_name(key), key.scheme, _hist_key_json(key), params, arrays, source
        )

    def put_tree(
        self,
        key: TreeCacheKey,
        tree: "FlatRTree",
        *,
        source: Mapping[str, object] | None = None,
    ) -> bool:
        """Atomically publish a packed flat tree under ``key``."""
        params, arrays = encode_tree(tree)
        if params.get("max_entries") != key.max_entries:
            raise ValueError(
                f"tree fan-out {params.get('max_entries')} does not match "
                f"key max_entries {key.max_entries}"
            )
        return self._publish(
            tree_entry_name(key), TREE_KIND, _tree_key_json(key), params, arrays, source
        )

    # -- retention ------------------------------------------------------
    def invalidate(self, key: CacheKey | TreeCacheKey) -> bool:
        """Remove the entry for ``key`` (stale after a dataset mutation).

        True when an entry was removed.  Raises :class:`ValueError` on a
        read-only catalog — silent non-invalidation would serve stale
        statistics forever.
        """
        if self.read_only:
            raise ValueError("cannot invalidate through a read-only catalog")
        name = (
            hist_entry_name(key) if isinstance(key, CacheKey) else tree_entry_name(key)
        )
        removed = self._discard(name)
        if removed:
            self.stats.add("invalidations")
        return removed

    def evict(self, max_bytes: int) -> list[str]:
        """Delete least-recently-used entries until ≤ ``max_bytes`` remain.

        Recency is the manifest mtime, touched on every (writable) load.
        Returns the removed entry names, oldest first.
        """
        if self.read_only:
            raise ValueError("cannot evict through a read-only catalog")
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        entries = sorted(self.entries(), key=lambda e: (e.last_used, e.name))
        total = sum(e.nbytes for e in entries)
        removed: list[str] = []
        for entry in entries:
            if total <= max_bytes:
                break
            if self._discard(entry.name):
                total -= entry.nbytes
                removed.append(entry.name)
                self.stats.add("evictions")
        return removed

    # -- introspection --------------------------------------------------
    def entries(self) -> list[StoreEntry]:
        """Every readable published entry, sorted by name.

        Unreadable manifests are skipped (a concurrent eviction, or
        damage that the next load will count and discard).
        """
        if not self._objects.is_dir():
            return []
        out: list[StoreEntry] = []
        for entry_dir in sorted(self._objects.iterdir()):
            manifest_path = entry_dir / MANIFEST_NAME
            try:
                manifest = json.loads(manifest_path.read_bytes())
                mtime = os.stat(manifest_path).st_mtime
            except (OSError, ValueError):
                continue
            if not isinstance(manifest, dict):
                continue
            specs = manifest.get("arrays")
            specs = specs if isinstance(specs, dict) else {}
            nbytes = 0
            for spec in specs.values():
                if isinstance(spec, dict) and isinstance(spec.get("file_bytes"), int):
                    nbytes += spec["file_bytes"]
            source = manifest.get("source")
            out.append(
                StoreEntry(
                    name=entry_dir.name,
                    kind=str(manifest.get("kind")),
                    nbytes=nbytes,
                    last_used=mtime,
                    key=dict(manifest.get("key") or {}),
                    params=_params_of(manifest),
                    source=dict(source) if isinstance(source, dict) else None,
                )
            )
        return out

    def total_bytes(self) -> int:
        """Payload bytes across every readable entry."""
        return sum(entry.nbytes for entry in self.entries())

    def verify_entry(self, name: str) -> list[str]:
        """Full integrity check of one entry; returns problem strings.

        Unlike loads (which only cross-check sizes and the array
        header), this re-reads every payload and recomputes the BLAKE2b
        checksums recorded at publish time.
        """
        entry_dir = self._objects / name
        problems: list[str] = []
        try:
            manifest = json.loads((entry_dir / MANIFEST_NAME).read_bytes())
        except (OSError, ValueError) as exc:
            return [f"unreadable manifest ({type(exc).__name__})"]
        if not isinstance(manifest, dict) or manifest.get("version") != FORMAT_VERSION:
            return [f"unsupported manifest version {manifest.get('version')!r}"]
        specs = manifest.get("arrays")
        if not isinstance(specs, dict) or not specs:
            return ["manifest lists no arrays"]
        for aname, spec in sorted(specs.items()):
            if not isinstance(spec, dict):
                problems.append(f"{aname}: malformed array spec")
                continue
            path = entry_dir / str(spec.get("file"))
            try:
                size = os.stat(path).st_size
                arr = np.load(path, mmap_mode="r", allow_pickle=False)
            except (OSError, ValueError) as exc:
                problems.append(f"{aname}: unreadable payload ({type(exc).__name__})")
                continue
            if size != spec.get("file_bytes"):
                problems.append(
                    f"{aname}: file is {size} bytes, manifest says {spec.get('file_bytes')}"
                )
            if str(arr.dtype) != spec.get("dtype") or list(arr.shape) != spec.get("shape"):
                problems.append(
                    f"{aname}: header {arr.dtype}{arr.shape} does not match manifest"
                )
                continue
            digest = hashlib.blake2b(arr.tobytes()).hexdigest()
            if digest != spec.get("blake2b"):
                problems.append(f"{aname}: checksum mismatch")
        return problems

    # -- internals ------------------------------------------------------
    def _note_corrupt(self, name: str) -> None:
        self.stats.add("corrupt_detected", "misses")
        if not self.read_only:
            self._discard(name)

    def _note_hit(self, name: str) -> None:
        self.stats.add("hits")
        if not self.read_only:
            try:
                os.utime(self._objects / name / MANIFEST_NAME)
            except OSError:
                pass  # recency is best-effort; a race with eviction is fine

    def _read_entry(
        self,
        name: str,
        kinds: Container[str],
        key_json: dict[str, object],
    ) -> tuple[dict[str, object], dict[str, np.ndarray]] | None:
        """Manifest + mmap-opened arrays, ``None`` on clean miss.

        Raises :class:`ArtifactIntegrityError` on anything between —
        unreadable/foreign manifest, truncated payload, header mismatch.
        """
        entry_dir = self._objects / name
        manifest_path = entry_dir / MANIFEST_NAME
        try:
            raw = manifest_path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise ArtifactIntegrityError(f"{name}: manifest unreadable: {exc}") from exc
        try:
            manifest = json.loads(raw)
        except ValueError as exc:
            raise ArtifactIntegrityError(f"{name}: manifest is not JSON") from exc
        if not isinstance(manifest, dict) or manifest.get("version") != FORMAT_VERSION:
            raise ArtifactIntegrityError(f"{name}: unsupported manifest version")
        if manifest.get("kind") not in kinds or manifest.get("key") != key_json:
            raise ArtifactIntegrityError(f"{name}: entry does not match the key")
        specs = manifest.get("arrays")
        if not isinstance(specs, dict) or not specs:
            raise ArtifactIntegrityError(f"{name}: manifest lists no arrays")
        arrays: dict[str, np.ndarray] = {}
        for aname, spec in specs.items():
            if not isinstance(spec, dict):
                raise ArtifactIntegrityError(f"{name}/{aname}: malformed array spec")
            path = entry_dir / str(spec.get("file"))
            try:
                size = os.stat(path).st_size
                arr = np.load(path, mmap_mode="r", allow_pickle=False)
            except (OSError, ValueError) as exc:
                raise ArtifactIntegrityError(
                    f"{name}/{aname}: payload unreadable: {type(exc).__name__}"
                ) from exc
            if size != spec.get("file_bytes"):
                raise ArtifactIntegrityError(
                    f"{name}/{aname}: truncated payload ({size} bytes)"
                )
            if str(arr.dtype) != spec.get("dtype") or list(arr.shape) != spec.get("shape"):
                raise ArtifactIntegrityError(
                    f"{name}/{aname}: header does not match manifest"
                )
            arrays[aname] = arr
        return manifest, arrays

    def _publish(
        self,
        name: str,
        kind: str,
        key_json: dict[str, object],
        params: dict[str, object],
        arrays: Mapping[str, np.ndarray],
        source: Mapping[str, object] | None,
    ) -> bool:
        if self.read_only:
            return False
        final = self._objects / name
        if (final / MANIFEST_NAME).exists():
            return True  # already published (idempotent)
        staging = self._tmp / f"{name}.{os.getpid()}.{next(self._seq)}"
        staging.mkdir(parents=True)
        try:
            specs: dict[str, object] = {}
            for aname in sorted(arrays):
                arr = np.ascontiguousarray(arrays[aname])
                checkpoint("store.publish.write")
                file_name = f"{aname}.npy"
                file_path = staging / file_name
                with open(file_path, "wb") as fh:
                    np.save(fh, arr)
                    fh.flush()
                    os.fsync(fh.fileno())
                specs[aname] = {
                    "file": file_name,
                    "dtype": str(arr.dtype),
                    "shape": list(arr.shape),
                    "nbytes": int(arr.nbytes),
                    "file_bytes": int(os.stat(file_path).st_size),
                    "blake2b": hashlib.blake2b(arr.tobytes()).hexdigest(),
                }
            manifest = {
                "version": FORMAT_VERSION,
                "kind": kind,
                "key": key_json,
                "params": params,
                "arrays": specs,
                "source": dict(source) if source is not None else None,
            }
            checkpoint("store.publish.manifest")
            blob = json.dumps(manifest, sort_keys=True).encode("utf-8")
            with open(staging / MANIFEST_NAME, "wb") as fh:
                fh.write(blob)
                fh.flush()
                os.fsync(fh.fileno())
            _fsync_dir(staging)
            checkpoint("store.publish.rename")
            try:
                os.rename(staging, final)
            except OSError:
                # Concurrent publisher of the same key won the rename.
                shutil.rmtree(staging, ignore_errors=True)
                return (final / MANIFEST_NAME).exists()
            _fsync_dir(self._objects)
        except BaseException:
            # Publish failed mid-stage (fault injection, deadline, disk
            # error): drop the staging dir so nothing readable remains.
            shutil.rmtree(staging, ignore_errors=True)
            raise
        self.stats.add("publishes")
        return True

    def _discard(self, name: str) -> bool:
        """Atomically unlink one entry: rename out of ``objects/`` first
        so readers see the entry disappear whole, then reclaim."""
        entry_dir = self._objects / name
        trash = self._tmp / f"trash.{name}.{os.getpid()}.{next(self._seq)}"
        try:
            os.rename(entry_dir, trash)
        except OSError:
            return False  # already gone, or raced with another discard
        shutil.rmtree(trash, ignore_errors=True)
        return True

    def _sweep_tmp(self) -> None:
        """Reclaim staging debris left by crashed publishers."""
        for child in self._tmp.iterdir():
            shutil.rmtree(child, ignore_errors=True)


def _params_of(manifest: Mapping[str, object]) -> dict[str, object]:
    params = manifest.get("params")
    return dict(params) if isinstance(params, Mapping) else {}
