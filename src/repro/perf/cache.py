"""Content-addressed histogram cache with multi-level GH derivation.

The serving-side observation behind this module: histogram *builds* scan
the data (milliseconds to seconds), histogram *combines* scan only the
cells (microseconds).  A workload that joins the same datasets
repeatedly should therefore pay each build once.  The cache keys built
histogram files by

    (dataset fingerprint, scheme, level, extent)

where the fingerprint hashes the actual geometry
(:func:`~repro.perf.fingerprint.dataset_fingerprint`), so renamed
datasets share entries and mutated datasets never collide with their
former selves.  Entries are held LRU within a configurable byte budget
(sized by each histogram's ``size_bytes``, the paper's file-size
accounting), with hit/miss/build/derivation/eviction counters exposed
for observability.

**Multi-level GH derivation.**  Revised-GH statistics are additive
across cell boundaries (paper §3.2.2 / Figure 7), so a parent cell's
statistics are exact functions of its 2×2 children
(:func:`~repro.histograms.pyramid.downsample_gh`).  On a GH miss the
cache therefore looks for a cached *finer* GH of the same dataset and
extent and derives the requested level by repeated 2×2 pooling instead
of rebuilding from the data — turning e.g. the
:class:`~repro.service.resilient.ResilientEstimator` GH→coarser-GH
fallback rung from a second O(data) build into an O(cells) fold.

Builds executed while a fault-injection hook is active are *not*
inserted (a mutation hook may have corrupted the freshly built cells;
caching them would poison every later hit), so chaos tests keep their
semantics even when a cache is threaded through.

**Flat-tree cache.**  :class:`FlatTreeCache` applies the same recipe to
bulk-loaded :class:`~repro.rtree.flat.FlatRTree` structures, keyed by
``(rects fingerprint, packing, max_entries)``.  The sampling
estimator's confidence replicas re-join the *same* full dataset when a
fraction is 1.0, and the paper's "Est. Time 2" scenario assumes the
input trees already exist — both reduce to warm hits here instead of
rebuilds.  Both caches share one retention tier (:class:`_ByteLRU`:
the LRU within its byte budget, the counters, the no-poison insert and
the best-effort store publish) and differ only in their keys and
resolve steps.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Generic, Iterable, Protocol, TypeVar

from ..core.estimator import (
    BasicGHEstimator,
    GHEstimator,
    PHEstimator,
    PreparedEstimator,
)
from ..datasets import SpatialDataset
from ..geometry import Rect, RectArray
from ..histograms import GHHistogram, downsample_gh
from ..histograms.file import HISTOGRAM_SCHEMES, Histogram
from ..rtree import DEFAULT_MAX_ENTRIES, FlatRTree, flat_load_hilbert, flat_load_str
from ..errors import EstimationTimeout
from ..runtime import active_scope
from .fingerprint import dataset_fingerprint, rects_fingerprint

if TYPE_CHECKING:
    from ..store import ArtifactCatalog
    from .memo import EstimateCache

__all__ = [
    "CacheKey",
    "CacheStats",
    "HistogramCache",
    "CachedEstimator",
    "TreeCacheKey",
    "FlatTreeCache",
]

#: Bulk loader per flat-tree packing (the ``packing`` axis of
#: :class:`TreeCacheKey`, and of the store's tree entry names).
_TREE_LOADERS = {
    "str": flat_load_str,
    "hilbert": flat_load_hilbert,
}

#: Default byte budget: 64 MiB ≈ a level-9 GH plus plenty of headroom.
DEFAULT_MAX_BYTES = 64 << 20


@dataclass(frozen=True, slots=True)
class CacheKey:
    """Content-addressed identity of one histogram file."""

    fingerprint: str
    scheme: str
    level: int
    extent: tuple[float, float, float, float]


@dataclass(frozen=True, slots=True)
class TreeCacheKey:
    """Content-addressed identity of one bulk-loaded flat tree."""

    fingerprint: str
    packing: str
    max_entries: int


@dataclass
class CacheStats:
    """Monotonic counters describing cache behaviour since creation."""

    hits: int = 0
    misses: int = 0
    builds: int = 0  #: misses answered by building from the data
    derivations: int = 0  #: GH misses answered by pooling a finer level
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        """Hits / lookups (0.0 before the first lookup)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def snapshot(self) -> dict[str, float]:
        """Plain-dict view for reports and benchmark JSON."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "builds": self.builds,
            "derivations": self.derivations,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class _Sized(Protocol):
    @property
    def size_bytes(self) -> int: ...


_K = TypeVar("_K", CacheKey, TreeCacheKey)
_V = TypeVar("_V", bound=_Sized)


class _ByteLRU(Generic[_K, _V]):
    """The retention tier shared by :class:`HistogramCache` and
    :class:`FlatTreeCache`: LRU within a byte budget.

    Owns the entries, their byte count, the lock and the
    :class:`CacheStats`; the L1 probe; the insert (nothing is retained
    under a fault hook, an entry larger than the whole budget is never
    retained, a racing insert keeps the first entry); and the
    best-effort publish to the optional ``store`` L2 tier.  Subclasses
    add their key type, ``key_for`` and ``resolve``.

    Thread-safe: lookups and insertions are lock-protected; builds run
    outside the lock so concurrent misses on different keys overlap.
    """

    def __init__(
        self,
        max_bytes: int = DEFAULT_MAX_BYTES,
        *,
        store: "ArtifactCatalog | None" = None,
    ) -> None:
        if max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.max_bytes = int(max_bytes)
        self.store = store
        self.stats = CacheStats()
        self._entries: OrderedDict[_K, _V] = OrderedDict()  # guarded-by: _lock
        self._bytes = 0  # guarded-by: _lock
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    @property
    def current_bytes(self) -> int:
        """Total ``size_bytes`` of retained entries (always ≤ budget)."""
        with self._lock:
            return self._bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: _K) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> list[_K]:
        """Retained keys, least- to most-recently used."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        """Drop every entry (counters are preserved)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    # ------------------------------------------------------------------
    def _probe(self, key: _K) -> "tuple[_V | None, _V | None]":
        """Count one lookup: ``(hit, None)``, or ``(None, donor)`` on a
        miss, the donor picked by :meth:`_donor` under the same lock."""
        with self._lock:
            hit = self._entries.get(key)
            if hit is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return hit, None
            self.stats.misses += 1
            return None, self._donor(key, self._entries.items())

    def _donor(self, key: _K, retained: Iterable[tuple[_K, _V]]) -> "_V | None":
        """A retained entry a miss on ``key`` can be derived from."""
        return None

    def _admit_build(self, key: _K, value: _V) -> _V:
        """Count a fresh build, publish it to the store, retain it."""
        with self._lock:
            self.stats.builds += 1
        self._publish(key, value)
        self._insert(key, value)
        return value

    def _publish(self, key: _K, value: _V) -> None:
        """Best-effort L2 publish of a fresh build.

        Skipped while a fault hook is active (the ``_insert`` no-poison
        rule, made durable) or a deadline is ticking (a request's
        budget must not be spent on fsyncs).  Publish failures
        (deadline mid-write, disk errors) abandon the staging dir and
        never fail the lookup.
        """
        if self.store is None or self.store.read_only:
            return
        scope = active_scope()
        if scope is not None and (scope.hook is not None or scope.deadline is not None):
            return
        try:
            self._put(self.store, key, value)
        except (EstimationTimeout, OSError):
            return

    def _put(self, store: "ArtifactCatalog", key: _K, value: _V) -> None:
        raise NotImplementedError

    def _insert(self, key: _K, value: _V) -> None:
        scope = active_scope()
        if scope is not None and scope.hook is not None:
            return  # a mutation hook may have corrupted this build
        size = value.size_bytes
        if size > self.max_bytes:
            return  # would evict everything and still not fit
        with self._lock:
            if key in self._entries:  # another thread raced us; keep theirs
                self._entries.move_to_end(key)
                return
            self._entries[key] = value
            self._bytes += size
            while self._bytes > self.max_bytes:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.size_bytes
                self.stats.evictions += 1


class HistogramCache(_ByteLRU[CacheKey, Histogram]):
    """LRU histogram-file cache with a byte budget and GH derivation.

    Parameters
    ----------
    max_bytes:
        Retention budget over the sum of cached ``size_bytes``.  An
        entry larger than the whole budget is still built and returned,
        just never retained.
    store:
        Optional :class:`~repro.store.ArtifactCatalog` L2 tier.  An L1
        miss then consults the catalog before building (exact key
        first, then a stored *finer* GH pooled down), and fresh builds
        are published back (atomically; skipped while any runtime
        scope is active, mirroring the no-poison insertion rule).
        Catalog loads are zero-copy mmap views.

    A GH miss is answered by 2×2-pooling a cached finer GH of the same
    dataset/extent when one exists.
    """

    @staticmethod
    def key_for(
        dataset: SpatialDataset, scheme: str, level: int, extent: Rect | None = None
    ) -> CacheKey:
        """The content-addressed key a lookup would use."""
        if scheme not in HISTOGRAM_SCHEMES:
            raise ValueError(
                f"unknown scheme {scheme!r}; choose from {sorted(HISTOGRAM_SCHEMES)}"
            )
        extent = extent or dataset.extent
        return CacheKey(
            fingerprint=dataset_fingerprint(dataset),
            scheme=scheme,
            level=int(level),
            extent=extent.as_tuple(),
        )

    def get_or_build(
        self,
        dataset: SpatialDataset,
        scheme: str = "gh",
        level: int = 7,
        *,
        extent: Rect | None = None,
    ) -> Histogram:
        """The histogram for ``(dataset, scheme, level, extent)``.

        Resolution order: cache hit → GH derivation from a cached finer
        level → L2 catalog (exact, then stored finer GH pooled down) →
        fresh build from the data.  Derived and built histograms are
        retained (LRU within the byte budget) unless a fault hook is
        active in the current runtime scope; fresh builds are also
        published to the catalog when one is attached.
        """
        return self.resolve(dataset, scheme, level, extent=extent)[0]

    def resolve(
        self,
        dataset: SpatialDataset,
        scheme: str = "gh",
        level: int = 7,
        *,
        extent: Rect | None = None,
    ) -> "tuple[Histogram, str]":
        """:meth:`get_or_build` plus the *source* that answered.

        Sources, cheapest first: ``"l1"`` (in-memory hit),
        ``"derived"`` (pooled from an in-memory finer GH), ``"store"``
        (catalog mmap load), ``"store-derived"`` (pooled from a stored
        finer GH), ``"build"`` (scanned the data).  The serving layer
        maps these onto :class:`~repro.serve.degrade.ServeProvenance`.
        """
        extent = extent or dataset.extent
        key = self.key_for(dataset, scheme, level, extent)
        hit, donor = self._probe(key)
        if hit is not None:
            return hit, "l1"
        if isinstance(donor, GHHistogram):
            return self._derive(key, donor), "derived"
        if self.store is not None:
            stored = self.store.load_histogram(key)
            if stored is not None:
                self._insert(key, stored)
                return stored, "store"
            donor_key = self.store.gh_donor_key(key) if scheme == "gh" else None
            stored_donor = (
                self.store.load_histogram(donor_key) if donor_key is not None else None
            )
            if isinstance(stored_donor, GHHistogram):
                return self._derive(key, stored_donor), "store-derived"
        hist = HISTOGRAM_SCHEMES[scheme].build(dataset, level, extent=extent)
        return self._admit_build(key, hist), "build"

    def _donor(
        self, key: CacheKey, retained: Iterable[tuple[CacheKey, Histogram]]
    ) -> GHHistogram | None:
        """Cheapest GH derivation donor: the *coarsest* retained level >
        requested (pooling cost is dominated by the finest level folded,
        so among valid donors the one closest to the requested level
        wins)."""
        if key.scheme != "gh":
            return None
        best: GHHistogram | None = None
        for other, hist in retained:
            if (
                isinstance(hist, GHHistogram)
                and other.fingerprint == key.fingerprint
                and other.extent == key.extent
                and other.level > key.level
                and (best is None or other.level < best.grid.level)
            ):
                best = hist
        return best

    def _derive(self, key: CacheKey, donor: GHHistogram) -> GHHistogram:
        """Fold a finer GH down to ``key.level`` by exact 2×2 pooling."""
        hist = donor
        for _ in range(donor.grid.level - key.level):
            hist = downsample_gh(hist)
        with self._lock:
            self.stats.derivations += 1
        self._insert(key, hist)
        return hist

    def _put(self, store: "ArtifactCatalog", key: CacheKey, value: Histogram) -> None:
        store.put_histogram(key, value)


class CachedEstimator(PreparedEstimator):
    """A :class:`PreparedEstimator` whose ``prepare`` goes through a cache.

    Wraps GH/PH/basic-GH estimators transparently (same ``name`` /
    ``level`` / ``combine``); other estimator kinds pass through
    untouched via :meth:`wrap`.
    """

    def __init__(
        self,
        inner: PreparedEstimator,
        cache: HistogramCache,
        *,
        memo: "EstimateCache | None" = None,
    ) -> None:
        if not isinstance(inner, (GHEstimator, PHEstimator, BasicGHEstimator)):
            raise TypeError(
                f"CachedEstimator wraps histogram estimators, got {type(inner).__name__}"
            )
        self.inner = inner
        self.cache = cache
        self.memo = memo
        self.name = inner.name
        self.level = inner.level

    @classmethod
    def wrap(
        cls, estimator: object, cache: HistogramCache
    ) -> object:
        """Cache-wrap ``estimator`` when its summaries are cacheable."""
        if isinstance(estimator, (GHEstimator, PHEstimator, BasicGHEstimator)):
            return cls(estimator, cache)
        return estimator

    def memo_formula(self) -> "str | None":
        """The wrapped estimator's label — caching layers don't change
        the number, so the memo entries are interchangeable."""
        return self.inner.memo_formula()

    def prepare(self, dataset: SpatialDataset, *, extent: Rect | None = None) -> Histogram:
        """The (possibly cached or derived) histogram file for ``dataset``."""
        return self.cache.get_or_build(dataset, self.name, self.level, extent=extent)

    def combine(self, prep1: Histogram, prep2: Histogram) -> float:
        """Delegate to the wrapped estimator's combine formula."""
        return self.inner.combine(prep1, prep2)

    def __repr__(self) -> str:
        return f"CachedEstimator({self.inner!r})"


class FlatTreeCache(_ByteLRU[TreeCacheKey, FlatRTree]):
    """LRU cache of bulk-loaded :class:`FlatRTree` structures.

    Same retention tier as :class:`HistogramCache` — LRU within a byte
    budget over each tree's ``size_bytes``, content-addressed keys, and
    no insertion while a fault hook is active — but keyed on bare
    rectangle arrays (:func:`~repro.perf.fingerprint.rects_fingerprint`)
    because sample trees are built from picked rects, not datasets.
    The ``derivations`` counter stays zero (trees have no cross-level
    derivation).  An optional ``store`` catalog adds the same L2 tier as
    :class:`HistogramCache`: miss → mmap load of the packed blocks →
    bulk-load + publish.
    """

    @staticmethod
    def key_for(
        rects: RectArray,
        packing: str = "str",
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ) -> TreeCacheKey:
        """The content-addressed key a lookup would use."""
        if packing not in _TREE_LOADERS:
            raise ValueError(
                f"unknown packing {packing!r}; choose from {sorted(_TREE_LOADERS)}"
            )
        return TreeCacheKey(
            fingerprint=rects_fingerprint(rects),
            packing=packing,
            max_entries=int(max_entries),
        )

    def get_or_build(
        self,
        rects: RectArray,
        packing: str = "str",
        *,
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ) -> FlatRTree:
        """The flat tree for ``(rects, packing, max_entries)``.

        A hit returns the retained tree (``FlatRTree`` is immutable by
        convention, so sharing is safe); a miss consults the L2 catalog
        (when attached) and otherwise bulk-loads, retains (LRU within
        the byte budget, unless a fault hook is active), publishes, and
        returns.
        """
        return self.resolve(rects, packing, max_entries=max_entries)[0]

    def resolve(
        self,
        rects: RectArray,
        packing: str = "str",
        *,
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ) -> "tuple[FlatRTree, str]":
        """:meth:`get_or_build` plus the source: ``"l1"`` / ``"store"``
        / ``"build"`` (same contract as :meth:`HistogramCache.resolve`)."""
        key = self.key_for(rects, packing, max_entries)
        hit, _ = self._probe(key)
        if hit is not None:
            return hit, "l1"
        if self.store is not None:
            stored = self.store.load_tree(key)
            if stored is not None:
                self._insert(key, stored)
                return stored, "store"
        tree = _TREE_LOADERS[packing](rects, max_entries=max_entries)
        return self._admit_build(key, tree), "build"

    def _put(self, store: "ArtifactCatalog", key: TreeCacheKey, value: FlatRTree) -> None:
        store.put_tree(key, value)
