"""Tier-0 estimate memo: the cheapest rung of the warm path.

The histogram cache (:mod:`repro.perf.cache`) already collapses warm
*builds* to O(cells) combines; this module collapses warm *estimates*
to a dict lookup.  A combine is a pure function of the two histogram
files, which are themselves pure functions of ``(dataset geometry,
scheme, level, extent)`` — so the final float can be content-addressed
by

    (fingerprint1, fingerprint2, formula, extent)

and replayed bit-identically without touching a single cell.  The
``formula`` string names the combine including every parameter that
changes the number (``"gh(level=7)"``, ``"ph(level=5,span=1)"``, ...);
producers share :func:`scheme_formula` so entries written by
``estimate_many`` are readable by ``PreparedEstimator.estimate`` and by
the serving fast lane.

Keys are **ordered** — ``(f1, f2)`` and ``(f2, f1)`` are distinct
entries.  Equation 5 is mathematically symmetric, but swapping the
operands reorders the float additions; canonicalizing the pair would
trade bit-identity for a slightly higher hit rate, and bit-identity is
the whole contract.

**Fault discipline.**  Both :meth:`EstimateCache.get` and
:meth:`EstimateCache.put` are bypassed while a fault-injection hook is
active in the current runtime scope: a memo hit would let a request
dodge the fault it was supposed to see, and a memo insert could retain
a value computed through a mutation hook (the histogram cache's
no-poison rule, applied one tier up).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..datasets import SpatialDataset
from ..geometry import Rect
from ..runtime import active_scope
from .cache import _ByteCache
from .fingerprint import dataset_fingerprint, peek_fingerprint

__all__ = ["EstimateKey", "EstimateCache", "scheme_formula"]

#: Default entry budget: a key is ~100 bytes and a value is one float,
#: so 64 Ki entries is a few MiB — tiny next to one level-7 histogram.
DEFAULT_MAX_ENTRIES = 64 * 1024


def scheme_formula(scheme: str, level: int) -> str:
    """Canonical formula label shared by every memo producer.

    :attr:`ServeRequest.requested <repro.serve.loop.ServeRequest.requested>`
    returns this label, so a memo key names exactly what a request
    asked for.
    """
    return f"{scheme}(level={int(level)})"


@dataclass(frozen=True, slots=True)
class EstimateKey:
    """Content-addressed identity of one selectivity estimate."""

    fingerprint1: str
    fingerprint2: str
    formula: str
    extent: tuple[float, float, float, float]


class EstimateCache(_ByteCache[EstimateKey, float]):
    """Thread-safe LRU of final selectivity floats.

    The shared retention tier with every entry of size 1 and cost 1:
    the byte budget counts entries (``max_entries``) and GreedyDual-Size
    degenerates to exact LRU.

    Invalidation is free: a sanctioned mutation bumps the dataset's
    token, the next fingerprint differs, and every key minted for the
    old geometry simply stops being asked for (stale entries age out of
    the LRU).  There is nothing to purge eagerly.
    """

    #: ``skips`` counts gets and puts bypassed under an active fault hook.
    _COUNTERS = ("hits", "misses", "inserts", "evictions", "skips")

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries <= 0:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        super().__init__(max_entries)
        self.max_entries = int(max_entries)

    def _size(self, value: float) -> int:
        return 1

    def _cost(self, value: float) -> int:
        return 1

    # ------------------------------------------------------------------
    @staticmethod
    def key_for(
        ds1: SpatialDataset,
        ds2: SpatialDataset,
        formula: str,
        extent: Rect,
    ) -> EstimateKey:
        """The memo key a lookup would use (folds cold fingerprints)."""
        return EstimateKey(
            fingerprint1=dataset_fingerprint(ds1),
            fingerprint2=dataset_fingerprint(ds2),
            formula=formula,
            extent=extent.as_tuple(),
        )

    @staticmethod
    def peek_key_for(
        ds1: SpatialDataset,
        ds2: SpatialDataset,
        formula: str,
        extent: Rect,
    ) -> "EstimateKey | None":
        """:meth:`key_for` without ever folding coordinates.

        Returns None when either side's fingerprint memo is cold — the
        event-loop fast lane must not pay O(n) work; the slow path will
        warm the fingerprints as a side effect.
        """
        f1 = peek_fingerprint(ds1)
        if f1 is None:
            return None
        f2 = peek_fingerprint(ds2)
        if f2 is None:
            return None
        return EstimateKey(
            fingerprint1=f1, fingerprint2=f2, formula=formula, extent=extent.as_tuple()
        )

    # ------------------------------------------------------------------
    def get(self, key: "EstimateKey | None") -> "float | None":
        """The memoized estimate, or None (miss, or fault-hook bypass).

        One lock acquisition: the tier's, under which the hit or miss
        is also counted (the counters share it)."""
        if key is None:
            return None
        scope = active_scope()
        if scope is not None and scope.hook is not None:
            self.stats.add("skips")
            return None
        return self._probe(key)

    def put(self, key: "EstimateKey | None", value: float) -> None:
        """Retain one estimate (LRU within the entry budget).

        No-op under an active fault hook — a value computed while a
        mutation hook could fire must never be retained (see the module
        docstring), and chaos suites assert exactly that.  No-op for a
        non-finite or negative value, so no lane can ever replay one.
        """
        if key is None or not math.isfinite(value) or value < 0:
            return
        scope = active_scope()
        if scope is not None and scope.hook is not None:
            self.stats.add("skips")
            return
        if self._insert(key, value):
            self.stats.add("inserts")

    def __repr__(self) -> str:
        return (
            f"EstimateCache(entries={len(self)}/{self.max_entries}, "
            f"hit_rate={self.stats.hit_rate:.2f})"
        )
