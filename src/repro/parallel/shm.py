"""Shared-memory shipping of rectangle arrays to worker processes.

The parallel engines send each input :class:`~repro.geometry.RectArray`
to the pool exactly once: the parent copies the four coordinate vectors
into one ``multiprocessing.shared_memory`` block (a ``(4, n)`` float64
matrix), and every worker *attaches* to the block by name in its pool
initializer and wraps zero-copy numpy views back into a ``RectArray``.
Task payloads then carry only band indices — a few integers — instead of
megabytes of coordinates per task.

Lifecycle rules (the part that is easy to get wrong):

* the parent keeps its :class:`SharedRects` handle open until the pool
  has shut down, then closes *and unlinks* the segment
  (:meth:`SharedRects.cleanup` is idempotent and safe in ``finally``);
* workers keep their attached segments referenced for the life of the
  process (the numpy views borrow the mapped buffer — dropping the
  ``SharedMemory`` object would invalidate them);
* workers attach with ``multiprocessing.resource_tracker`` registration
  *suppressed*: on CPython < 3.13 attaching registers the segment again
  (bpo-38119), and because the fork family shares one tracker whose
  per-type cache is a set, any balancing ``unregister`` from a worker
  would also strip the parent's legitimate registration.  Suppressing
  the duplicate register (the 3.13 ``track=False`` semantics) is the
  only sequence that leaves the tracker consistent.
"""

from __future__ import annotations

import numpy as np

from multiprocessing import shared_memory

from ..geometry import RectArray

__all__ = ["SharedRects", "attach_rects"]

#: Worker-side registry of attached segments, keyed by shm name.  Keeps
#: the mappings (and therefore the numpy views into them) alive for the
#: rest of the worker process.
_ATTACHED: dict[str, tuple[shared_memory.SharedMemory, RectArray]] = {}


class SharedRects:
    """Parent-side handle for one rect array exported over shared memory."""

    __slots__ = ("name", "n", "_shm")

    def __init__(self, rects: RectArray) -> None:
        self.n = len(rects)
        nbytes = max(1, 4 * self.n * np.dtype(np.float64).itemsize)
        self._shm = shared_memory.SharedMemory(create=True, size=nbytes)
        self.name = self._shm.name
        if self.n:
            view = np.ndarray((4, self.n), dtype=np.float64, buffer=self._shm.buf)
            view[0] = rects.xmin
            view[1] = rects.ymin
            view[2] = rects.xmax
            view[3] = rects.ymax

    def cleanup(self) -> None:
        """Close the mapping and unlink the segment (idempotent)."""
        if self._shm is None:
            return
        try:
            self._shm.close()
            self._shm.unlink()
        except FileNotFoundError:
            pass
        self._shm = None

    def __enter__(self) -> "SharedRects":
        return self

    def __exit__(self, *exc_info) -> None:
        self.cleanup()

    def __repr__(self) -> str:
        return f"SharedRects(name={self.name!r}, n={self.n})"


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to ``name`` without registering with the resource tracker.

    Emulates Python 3.13's ``SharedMemory(name, track=False)`` on older
    interpreters by silencing ``resource_tracker.register`` for the
    duration of the attach (the register call inside ``__init__`` is
    the only tracker interaction an attach performs).
    """
    try:
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original
    except ImportError:  # no tracker on this platform — plain attach
        return shared_memory.SharedMemory(name=name)


def attach_rects(name: str, n: int) -> RectArray:
    """Worker-side: materialize a zero-copy ``RectArray`` over segment ``name``.

    Idempotent per process — repeated attaches return the cached view.
    The coordinates were validated in the parent, so validation is
    skipped here (and must be: views are read-only by convention).
    """
    cached = _ATTACHED.get(name)
    if cached is not None:
        return cached[1]
    shm = _attach_untracked(name)
    view = np.ndarray((4, n), dtype=np.float64, buffer=shm.buf)
    rects = RectArray(view[0], view[1], view[2], view[3], validate=False, copy=False)
    _ATTACHED[name] = (shm, rects)
    return rects
