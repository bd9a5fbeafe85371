"""Content-addressed histogram cache.

The serving-side observation behind this module: histogram *builds* scan
the data (milliseconds to seconds), histogram *combines* scan only the
cells (microseconds).  A workload that joins the same datasets
repeatedly should therefore pay each build once.  The cache keys built
histogram files by

    (dataset fingerprint, scheme, level, extent)

where the fingerprint hashes the actual geometry
(:func:`~repro.perf.fingerprint.dataset_fingerprint`), so renamed
datasets share entries and mutated datasets never collide with their
former selves.  Entries are retained within a configurable byte budget
over the bytes each entry holds (a dense file's ``size_bytes``, the
paper's file-size accounting, or a packed file's occupied cells), with
hit/miss/build/pack/eviction counters exposed for observability.

**Cost-aware retention.**  A histogram's size depends only on its level
(32·4^h bytes for GH, 64·4^h for PH), but its build scans all N
rectangles, so two files of one size can differ a hundredfold in what
losing them costs.  Eviction is therefore GreedyDual-Size over rebuild
cost per byte, not recency alone: at equal bytes a small-N histogram
goes before a large-N one, and at equal cost per byte the order is
plain LRU.  The cost is N alone.  A per-cell term would add
``cell_count / size_bytes`` — 1/32 for GH and 1/64 for PH at every
level — to every priority, a per-scheme constant that for the
thousands-of-rectangles files of a serving working set outweighs the
N term and ranks them by scheme instead of by rebuild work.

**Packed victims.**  At fine levels most cells of a skewed dataset are
empty, so when the budget overflows the victim is first replaced by its
occupied cells (:func:`~repro.histograms.file.pack_histogram`) rather
than dropped, and re-ranked like a fresh insert at its packed size:
its credit becomes ``count / packed bytes``, plain GreedyDual-Size with
no extra knob.  A packed entry is dropped when it is the victim again,
and so is a victim mapped from the store: packing it would copy
page-cache bytes onto the heap to save a reopen of about 0.4 ms.
A hit on one expands it outside the lock, by zero-fill plus one
scatter, to planes ``tobytes()``-identical to a cold build.  A cache
that never exceeds its budget never packs, so its hits return the
retained object itself.

**One answer per key.**  A lookup resolves from exactly three sources
— the in-memory L1, the optional artifact store, or a fresh build — and
every one of them yields the very arrays a cold build would, so a
selectivity never depends on which source answered.  (A coarser GH is
*not* pooled from a cached finer one: summing 2×2 blocks of finer
cells adds the same float contributions in a different order than a
build does, so a pooled plane can differ from a cold build in the last
bit.)

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
rebuilds.  Both caches, and the estimate memo
(:class:`~repro.perf.memo.EstimateCache`) one tier up, share one
retention tier (:class:`_ByteCache`: the cost-aware eviction within its
byte budget, the counters, the no-poison insert and the best-effort
store publish) and differ only in their keys, resolve steps, sizes and
rebuild-cost proxy.  A memo entry has size 1 and cost 1, so its budget
counts entries and its order is exact LRU.
"""

from __future__ import annotations

import heapq
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Generic, Hashable, TypeVar

import numpy as np

from ..core.estimator import (
    BasicGHEstimator,
    GHEstimator,
    PHEstimator,
    PreparedEstimator,
)
from ..datasets import SpatialDataset
from ..geometry import Rect, RectArray
from ..histograms import GHHistogram, PHHistogram
from ..histograms.file import (
    HISTOGRAM_SCHEMES,
    Histogram,
    PackedHistogram,
    pack_if_smaller,
    unpack_histogram,
)
from ..rtree import DEFAULT_MAX_ENTRIES, FlatRTree, flat_load_hilbert, flat_load_str
from ..errors import EstimationTimeout
from ..obs import Counters, hit_rate
from ..runtime import active_scope
from .fingerprint import dataset_fingerprint, rects_fingerprint

if TYPE_CHECKING:
    from ..store import ArtifactCatalog
    from .memo import EstimateCache

__all__ = [
    "CacheKey",
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


_K = TypeVar("_K", bound=Hashable)
_V = TypeVar("_V")
_E = TypeVar("_E")


class _ByteCache(Generic[_K, _V]):
    """The retention tier shared by :class:`HistogramCache`,
    :class:`FlatTreeCache` and the estimate memo
    (:class:`~repro.perf.memo.EstimateCache`): GreedyDual-Size within a
    byte budget.

    Each retained entry carries a priority ``H = L + cost / size``
    where ``size`` is :meth:`_size`, ``cost`` is :meth:`_cost`, a
    deterministic proxy for the work a rebuild would redo, and ``L`` is
    the inflation floor.  A hit (or a racing re-insert) refreshes ``H``
    against the current ``L``; when the budget overflows, the entry
    with the smallest ``(H, touch sequence)`` is evicted and ``L``
    rises to its ``H`` (Cao & Irani,
    "Cost-Aware WWW Proxy Caching Algorithms", USENIX 1997).  So at
    equal bytes a cheap rebuild goes before an expensive one, entries
    nobody touches age out as ``L`` climbs past them, and at equal cost
    per byte the order is exactly LRU.

    Owns the entries, their byte count, the lock and the
    :class:`~repro.obs.Counters` named by ``_COUNTERS``, which share
    that lock (a probe takes one acquisition); the L1 probe;
    the insert (nothing is retained under a fault hook, an entry larger
    than the whole budget is never retained, a racing insert keeps the
    first entry); and the best-effort publish to the optional ``store``
    L2 tier.  Subclasses add their key type, ``key_for``, ``resolve``,
    ``_size`` and ``_cost``, and may add ``_pack`` to keep a smaller
    stand-in for an eviction victim.

    Thread-safe: lookups and insertions are lock-protected; builds run
    outside the lock so concurrent misses on different keys overlap.
    """

    #: The counter set; ``derivations`` is always 0, kept for
    #: perfbench's counter schema.
    _COUNTERS: tuple[str, ...] = ("hits", "misses", "builds", "derivations", "evictions")

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
        self._lock = threading.Lock()
        #: Shares the tier lock: a probe counts under the acquisition
        #: that finds the entry.
        self.stats = Counters(*self._COUNTERS, derived={"hit_rate": hit_rate}, lock=self._lock)
        self._entries: dict[_K, _V] = {}  # guarded-by: _lock
        self._bytes = 0  # guarded-by: _lock
        #: Live ``(H, touch sequence)`` per retained key.
        self._rank: dict[_K, tuple[float, int]] = {}  # guarded-by: _lock
        #: One ``(H, sequence, key)`` record per retained key, at most its
        #: live rank: a hit raises only ``_rank``, and eviction re-files
        #: a record that has fallen behind before trusting the minimum.
        self._heap: list[tuple[float, int, _K]] = []  # guarded-by: _lock
        self._floor = 0.0  # guarded-by: _lock
        self._touches = 0  # guarded-by: _lock

    # ------------------------------------------------------------------
    @property
    def current_bytes(self) -> int:
        """Total :meth:`_size` of retained entries (always ≤ budget)."""
        with self._lock:
            return self._bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: _K) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> list[_K]:
        """Retained keys in eviction order, next victim first."""
        with self._lock:
            return sorted(self._entries, key=self._rank.__getitem__)

    def clear(self) -> None:
        """Drop every entry and reset the floor (counters are preserved)."""
        with self._lock:
            self._entries.clear()
            self._rank.clear()
            self._heap.clear()
            self._bytes = 0
            self._floor = 0.0

    # ------------------------------------------------------------------
    def _size(self, value: _V) -> int:
        """Bytes ``value`` counts against the budget."""
        raise NotImplementedError

    def _cost(self, value: _V) -> int:
        """Deterministic work proxy for rebuilding ``value`` (never a
        timing: eviction must repeat run to run)."""
        raise NotImplementedError

    def _touch(self, key: _K, value: _V) -> None:
        """Set ``key``'s priority against the current floor.  Caller
        holds ``_lock``."""
        self._touches += 1
        credit = self._cost(value) / (self._size(value) or 1)  # an empty tree has 0 bytes
        self._rank[key] = (self._floor + credit, self._touches)

    def _pack(self, value: _V) -> "_V | None":
        """A smaller stand-in for an eviction victim, or ``None`` to
        drop it.  Caller holds ``_lock``.  The default never packs; a
        subclass that packs declares a ``packs`` counter."""
        return None

    def _evict_one(self) -> None:
        """Evict the lowest-priority entry and raise the floor to its
        ``H``: replace the entry by :meth:`_pack`'s stand-in when there
        is one, else drop it.  Caller holds ``_lock`` and ``_entries``
        is non-empty.

        Ranks only rise, so a record matching its key's live rank is
        the true minimum; a record that fell behind is re-filed first.
        """
        heap = self._heap
        while True:
            priority, touch, key = heap[0]
            live = self._rank[key]
            if live == (priority, touch):
                heapq.heappop(heap)
                break
            heapq.heapreplace(heap, (*live, key))
        self._floor = priority
        value = self._entries[key]
        packed = self._pack(value)
        if packed is None:
            del self._rank[key], self._entries[key]
            self._bytes -= self._size(value)
            self.stats.add_held("evictions")
            return
        # The packed copy is re-ranked as a fresh insert at its own size.
        self._entries[key] = packed
        self._bytes += self._size(packed) - self._size(value)
        self._touch(key, packed)
        heapq.heappush(heap, (*self._rank[key], key))
        self.stats.add_held("packs")

    def _probe(self, key: _K) -> "_V | None":
        """Count one lookup: the retained entry, or ``None`` on a miss."""
        with self._lock:
            hit = self._entries.get(key)
            if hit is not None:
                self._touch(key, hit)
                self.stats.add_held("hits")
                return hit
            self.stats.add_held("misses")
            return None

    def _admit_build(self, key: _K, value: _V) -> _V:
        """Count a fresh build, publish it to the store, retain it."""
        self.stats.add("builds")
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

    def _insert(self, key: _K, value: _V) -> bool:
        """Retain ``value``; True when it is a new entry."""
        scope = active_scope()
        if scope is not None and scope.hook is not None:
            return False  # a mutation hook may have corrupted this build
        size = self._size(value)
        if size > self.max_bytes:
            return False  # would evict everything and still not fit
        with self._lock:
            kept = self._entries.get(key)
            if kept is not None:  # another thread raced us; keep theirs
                self._touch(key, kept)
                return False
            self._entries[key] = value
            self._bytes += size
            self._touch(key, value)
            heapq.heappush(self._heap, (*self._rank[key], key))
            while self._bytes > self.max_bytes:
                self._evict_one()
            return True


class HistogramCache(_ByteCache[CacheKey, "Histogram | PackedHistogram"]):
    """Histogram-file cache with a byte budget.

    Parameters
    ----------
    max_bytes:
        Retention budget over the bytes the entries hold: a dense
        file's ``size_bytes``, a packed one's occupied cells.  An entry
        larger than the whole budget is still built and returned, just
        never retained.
    store:
        Optional :class:`~repro.store.ArtifactCatalog` L2 tier.  An L1
        miss then consults the catalog before building, and fresh builds
        are published back (atomically; skipped while any runtime
        scope is active, mirroring the no-poison insertion rule).
        Catalog loads are zero-copy mmap views.

    Eviction weighs each file's rebuild cost (``count``, the N
    rectangles its build scans) per byte, so large datasets outlive
    small ones of the same level, and a file outlives a larger one of
    any scheme or level that is cheaper per byte to rebuild.  A dense
    victim that has empty cells is first packed
    (:func:`~repro.histograms.file.pack_histogram`, counted as
    ``packs``) and re-ranked at its packed size; only a packed victim,
    one with no empty cell, or one mapped from the store is dropped
    (``evictions``).  A hit on a packed entry expands it, outside the
    lock, to a fresh dense file equal to a cold build.
    """

    _COUNTERS = _ByteCache._COUNTERS + ("packs",)

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

        Resolution order: cache hit → L2 catalog → fresh build from the
        data.  Loaded and built histograms are retained within the byte
        budget unless a fault hook is active in the current runtime
        scope; fresh builds are also published to the catalog when one
        is attached.
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

        Sources, cheapest first: ``"l1"`` (in-memory hit), ``"store"``
        (catalog mmap load), ``"build"`` (scanned the data).  All three
        answer with arrays equal to a cold build.  The serving layer
        maps these onto :class:`~repro.serve.degrade.ServeProvenance`.
        """
        extent = extent or dataset.extent
        key = self.key_for(dataset, scheme, level, extent)
        hit = self._probe(key)
        if isinstance(hit, PackedHistogram):
            return unpack_histogram(hit), "l1"
        if hit is not None:
            return hit, "l1"
        if self.store is not None:
            stored = self.store.load_histogram(key)
            if stored is not None:
                self._insert(key, stored)
                return stored, "store"
        hist = HISTOGRAM_SCHEMES[scheme].build(dataset, level, extent=extent)
        self._admit_build(key, hist)
        return hist, "build"

    def _put(self, store: "ArtifactCatalog", key: CacheKey, value: Histogram) -> None:
        store.put_histogram(key, value)

    def _size(self, value: "Histogram | PackedHistogram") -> int:
        return value.size_bytes

    def _cost(self, value: "Histogram | PackedHistogram") -> int:
        """The rectangle scan a rebuild redoes.  No per-cell term: the
        cells are proportional to ``size_bytes``, so they would add one
        constant per scheme to every ``cost / size`` credit."""
        return value.count

    def _pack(self, value: "Histogram | PackedHistogram") -> "PackedHistogram | None":
        """The occupied cells of a dense victim, when they are smaller and
        the victim is not a view of a store mapping (a reopen is cheaper
        than copying the mapped bytes onto the heap)."""
        if isinstance(value, PackedHistogram) or _store_mapped(value):
            return None
        return pack_if_smaller(value)


def _store_mapped(hist: Histogram) -> bool:
    """Whether ``hist``'s planes view a memory-mapped file (a store load):
    walks the ``.base`` chain of its plane block, or of one plane for
    basic GH, which has no block."""
    array: object = hist.planes if isinstance(hist, (GHHistogram, PHHistogram)) else hist.c
    while isinstance(array, np.ndarray):
        if isinstance(array, np.memmap):
            return True
        array = array.base
    return False


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
    def wrap(cls, estimator: _E, cache: HistogramCache) -> "CachedEstimator | _E":
        """Cache-wrap ``estimator`` when its summaries are cacheable."""
        if isinstance(estimator, (GHEstimator, PHEstimator, BasicGHEstimator)):
            return cls(estimator, cache)
        return estimator

    def memo_formula(self) -> "str | None":
        """The wrapped estimator's label — caching layers don't change
        the number, so the memo entries are interchangeable."""
        return self.inner.memo_formula()

    def prepare(self, dataset: SpatialDataset, *, extent: Rect | None = None) -> Histogram:
        """The (possibly cached or stored) histogram file for ``dataset``."""
        return self.cache.get_or_build(dataset, self.name, self.level, extent=extent)

    def combine(self, prep1: Histogram, prep2: Histogram) -> float:
        """Delegate to the wrapped estimator's combine formula."""
        return self.inner.combine(prep1, prep2)

    def __repr__(self) -> str:
        return f"CachedEstimator({self.inner!r})"


class FlatTreeCache(_ByteCache[TreeCacheKey, FlatRTree]):
    """Cache of bulk-loaded :class:`FlatRTree` structures.

    Same retention tier as :class:`HistogramCache` — cost-aware eviction
    within a byte budget over each tree's ``size_bytes``, with the
    tree's rectangle count as its rebuild cost (roughly proportional to
    its size, so trees keep near-LRU order), content-addressed keys, and
    no insertion while a fault hook is active — but keyed on bare
    rectangle arrays (:func:`~repro.perf.fingerprint.rects_fingerprint`)
    because sample trees are built from picked rects, not datasets.
    An optional ``store`` catalog adds the same L2 tier as
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
        (when attached) and otherwise bulk-loads, retains (within the
        byte budget, unless a fault hook is active), publishes, and
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
        hit = self._probe(key)
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

    def _size(self, value: FlatRTree) -> int:
        return value.size_bytes

    def _cost(self, value: FlatRTree) -> int:
        return len(value)
