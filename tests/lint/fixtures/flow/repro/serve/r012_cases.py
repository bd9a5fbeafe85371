"""R012 fixtures: ``# guarded-by:`` lock discipline.

Three true positives (an unlocked read, a helper reachable from an
unlocked entry, and a held-lock helper called under a lock it does not
share) and the disciplined shapes the rule must accept (lexical
``with``, a helper whose every caller holds the lock, and an owner that
hands its lock over with ``lock=self._lock``).
"""

import threading


class Counter:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._total = 0  # guarded-by: _lock
        self._peak = 0  # guarded-by: _lock

    def add(self, n: int) -> None:
        with self._lock:
            self._total += n
            if self._total > self._peak:
                self._peak = self._total

    def racy_read(self) -> int:
        """TP: reads a guarded attribute with no lock on any path."""
        return self._total

    def _bump_locked(self, n: int) -> None:
        self._total += n  # TP while any caller enters without the lock

    def locked_entry(self, n: int) -> None:
        with self._lock:
            self._bump_locked(n)

    def racy_entry(self, n: int) -> None:
        self._bump_locked(n)


class Disciplined:
    """Every access path holds the lock — nothing here is flagged."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._items: list = []  # guarded-by: _lock

    def push(self, item) -> None:
        with self._lock:
            self._append_locked(item)

    def _append_locked(self, item) -> None:
        self._items.append(item)


class Tally:
    """Counts behind a lock that an owner may share (``lock=``)."""

    def __init__(self, lock=None) -> None:
        self.lock = lock if lock is not None else threading.Lock()
        self._counts = dict.fromkeys(("hits",), 0)  # guarded-by: lock

    def add(self, name) -> None:
        with self.lock:
            self.add_held(name)

    def add_held(self, name) -> None:
        self._counts[name] += 1  # TP via Stranger.count


class Sharing:
    """Hands its lock to its ``Tally``: counting under it is silent."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.stats = Tally(lock=self._lock)

    def probe(self) -> None:
        with self._lock:
            self.stats.add_held("hits")


class Stranger:
    """Holds a lock of its own that its ``Tally`` does not share."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.stats = Tally()

    def count(self) -> None:
        with self._lock:
            self.stats.add_held("hits")
