"""Runtime counters: the one stats shape every serving layer reports.

Each layer that counts events — the histogram and flat-tree caches, the
estimate memo, the artifact store, admission, the micro-batcher, the
degradation ladder and the server's fast lane — owns one
:class:`Counters` and bumps it with a single call.  Every count sits
behind one lock, so an increment is never lost to a race, and there is
one :meth:`~Counters.snapshot` shape: a plain ``{name: number}`` dict
for reports and benchmark JSON.

The lock may be the owner's own (``lock=``).  An owner that counts
inside a critical section it already holds then bumps with
:meth:`~Counters.add_held` and pays no second acquisition: a retention
tier counts its hits under the tier lock, and the server's fast-lane
tally shares the ladder's lock, so a memo hit takes two lock round
trips in all.

Derived values (a hit rate, a difference of two counts) are declared
once, as functions of the counts, and computed on read; they are never
stored, so they can never drift from the counts they describe.
"""

from __future__ import annotations

import threading
from typing import Callable, Mapping

__all__ = ["Counters"]

#: A value computed from the counts on every read.
Derived = Callable[[Mapping[str, int]], float]


def hit_rate(counts: Mapping[str, int]) -> float:
    """Hits / lookups (0.0 before the first lookup)."""
    lookups = counts["hits"] + counts["misses"]
    return counts["hits"] / lookups if lookups else 0.0


class Counters:
    """Named monotonic counts behind one lock.

    ``names`` fixes the counter set at construction (bumping an unknown
    name is a ``KeyError``, not a silent new key).  :meth:`add` adds one
    to each named count; :meth:`raise_to` keeps a high-water mark.
    ``derived`` maps extra names to functions of the counts, evaluated
    on read.  Every name — count or derived — reads as an attribute
    (``stats.hits``) or an item (``stats["cached-coarse"]``).

    ``lock`` shares an owner's (non-reentrant) lock instead of a private
    one.  The owner must then never call a locking method while it holds
    that lock; it counts there with :meth:`add_held`.
    """

    def __init__(
        self,
        *names: str,
        derived: "Mapping[str, Derived] | None" = None,
        lock: "threading.Lock | None" = None,
    ) -> None:
        self._counts: dict[str, int] = dict.fromkeys(names, 0)  # guarded-by: lock
        self._derived: dict[str, Derived] = dict(derived or {})
        #: The lock behind every count: private, or the owner's (``lock=``).
        self.lock = lock if lock is not None else threading.Lock()

    def add(self, *names: str) -> None:
        """Add one to each of ``names``, atomically."""
        with self.lock:
            self.add_held(*names)

    def add_held(self, *names: str) -> None:
        """:meth:`add` for a caller that already holds :attr:`lock`."""
        counts = self._counts
        for name in names:
            counts[name] += 1

    def raise_to(self, name: str, value: int) -> None:
        """Raise the high-water mark ``name`` to ``value`` if it is higher."""
        with self.lock:
            if value > self._counts[name]:
                self._counts[name] = value

    def snapshot(self) -> dict[str, float]:
        """Every count, then every derived value, as one plain dict."""
        with self.lock:
            counts = dict(self._counts)
        out: dict[str, float] = dict(counts)
        for name, fn in self._derived.items():
            out[name] = fn(counts)
        return out

    def __getitem__(self, name: str) -> float:
        with self.lock:
            if name in self._counts:
                return self._counts[name]
            counts = dict(self._counts)
        return self._derived[name](counts)

    def __getattr__(self, name: str) -> float:
        if name.startswith("_"):
            raise AttributeError(name)
        try:
            return self[name]
        except KeyError:
            raise AttributeError(
                f"{type(self).__name__} has no counter {name!r}"
            ) from None

    def __repr__(self) -> str:
        return f"Counters({self.snapshot()})"
