"""Spans for the traced run, recorded from outside the program.

The program has no tracing of its own yet, so the traced run wraps the
public callables of each layer at the place their caller looks them up
and records one span per call: its duration and its self time (the
duration minus the spans it caused).  Nothing here edits the program's
source: :meth:`Tracer.install` swaps attributes and
:meth:`Tracer.uninstall` puts the originals back.

Parent links travel in a :class:`contextvars.ContextVar`, which gives
every asyncio task and every thread its own current span.  Executor
threads start with an empty context, so a span opened there has no
parent on the event loop; the batch wait crosses that hop through the
:class:`~repro.perf.batch.BatchQuery` objects, which the micro-batcher
hands to ``estimate_many`` unchanged.
"""

from __future__ import annotations

import contextvars
import functools
import threading
from array import array
from dataclasses import dataclass, field
from time import perf_counter_ns
from types import ModuleType
from typing import Any, Callable


@dataclass
class _Open:
    """One running span; finished children add their duration to it."""

    start: int
    child_ns: int = 0


_CURRENT: "contextvars.ContextVar[_Open | None]" = contextvars.ContextVar(
    "perfbench_span", default=None
)


@dataclass
class SpanLog:
    """Durations and self times of one span name, in nanoseconds."""

    total: array = field(default_factory=lambda: array("q"))
    self_ns: array = field(default_factory=lambda: array("q"))


class Tracer:
    """Records spans around the wrapped callables while installed."""

    def __init__(self) -> None:
        self.logs: dict[str, SpanLog] = {}
        self.published_bytes = 0
        self._patches: list[tuple[object, str, object]] = []
        self._queued: dict[int, int] = {}  # id(BatchQuery) -> server submit start
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------
    def log(self, name: str) -> SpanLog:
        with self._lock:
            return self.logs.setdefault(name, SpanLog())

    def _close(self, name: str, span: _Open, parent: "_Open | None") -> None:
        total = perf_counter_ns() - span.start
        if parent is not None:
            parent.child_ns += total
        log = self.logs.get(name) or self.log(name)
        log.total.append(total)
        log.self_ns.append(total - span.child_ns)

    def _span(
        self, func: Callable[..., Any], name: "str | Callable[[Any], str]"
    ) -> Callable[..., Any]:
        """``func`` in a span; ``name`` may be computed from the result."""

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = _CURRENT.get()
            span = _Open(perf_counter_ns())
            token = _CURRENT.set(span)
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                _CURRENT.reset(token)
                self._close(name if isinstance(name, str) else name(result), span, parent)

        return wrapper

    def _async_span(self, func: Callable[..., Any], name: str) -> Callable[..., Any]:
        """Coroutine function ``func`` in a span called ``name``."""

        @functools.wraps(func)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            parent = _CURRENT.get()
            span = _Open(perf_counter_ns())
            token = _CURRENT.set(span)
            try:
                return await func(*args, **kwargs)
            finally:
                _CURRENT.reset(token)
                self._close(name, span, parent)

        return wrapper

    # -- patching ------------------------------------------------------
    def patch(self, owner: object, attr: str, wrap: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` by ``wrap(original)`` until uninstalled.

        A classmethod is unwrapped first and rewrapped after, so the
        restored attribute is the very descriptor that was there.
        """
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(wrap(original.__func__)))
        else:
            setattr(owner, attr, wrap(original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self, call_sites: ModuleType) -> None:
        """Wrap each layer's public entry points where they are looked up.

        ``call_sites`` is the benchmark module that itself calls
        ``pairwise_selectivities``, ``optimize_join_order`` and
        ``apply_updates``; those names are wrapped there.
        """
        import repro.core.matrix as matrix_mod
        import repro.perf.batch as batch_mod
        import repro.perf.fingerprint as fingerprint_mod
        import repro.serve.loop as loop_mod
        from repro.histograms import GHHistogram, PHHistogram
        from repro.perf import CachedEstimator, EstimateCache, HistogramCache
        from repro.serve import MicroBatcher
        from repro.store import ArtifactCatalog

        def span(name: "str | Callable[[Any], str]") -> Callable[[Any], Any]:
            return lambda func: self._span(func, name)

        self.patch(
            loop_mod.EstimationServer, "submit",
            lambda func: self._async_span(func, "serve.submit"),
        )
        self.patch(MicroBatcher, "submit", self._batcher_submit)
        self.patch(loop_mod, "estimate_many", self._estimate_many)
        self.patch(EstimateCache, "get", span("memo.get"))
        self.patch(fingerprint_mod, "dataset_fingerprint_uncached", span("fingerprint.fold"))
        self.patch(HistogramCache, "resolve", span(_resolve_span_name))
        for cls, scheme in ((GHHistogram, "gh"), (PHHistogram, "ph")):
            self.patch(cls, "build", span(f"hist.build.{scheme}"))
            self.patch(cls, "estimate_selectivity", span("hist.combine"))
        self.patch(batch_mod, "fused_pair_estimates", span("hist.fused_pairs"))
        self.patch(matrix_mod, "fused_selectivity_matrix", span("hist.fused_matrix"))
        self.patch(ArtifactCatalog, "load_histogram", span("store.load"))
        self.patch(ArtifactCatalog, "put_histogram", self._put_histogram)
        self.patch(ArtifactCatalog, "invalidate", span("store.invalidate"))
        self.patch(CachedEstimator, "prepare", span("core.prepare"))
        self.patch(call_sites, "pairwise_selectivities", span("core.matrix"))
        self.patch(call_sites, "optimize_join_order", span("core.optimizer"))
        self.patch(call_sites, "apply_updates", span("hist.apply_updates"))

    # -- wrappers with extra bookkeeping --------------------------------
    def _batcher_submit(self, func: Callable[..., Any]) -> Callable[..., Any]:
        """Note when the server-level submit of each batched query began."""
        inner = self._async_span(func, "serve.batcher_submit")

        @functools.wraps(func)
        async def wrapper(batcher: Any, query: Any, *args: Any, **kwargs: Any) -> Any:
            parent = _CURRENT.get()
            started = parent.start if parent is not None else perf_counter_ns()
            with self._lock:
                self._queued[id(query)] = started
            return await inner(batcher, query, *args, **kwargs)

        return wrapper

    def _estimate_many(self, func: Callable[..., Any]) -> Callable[..., Any]:
        """Span ``estimate_many`` and end the batch wait of its queries."""
        inner = self._span(func, "batch.estimate_many")
        waits = self.log("serve.batch_wait")

        @functools.wraps(func)
        def wrapper(queries: Any, *args: Any, **kwargs: Any) -> Any:
            now = perf_counter_ns()
            with self._lock:
                for query in queries:
                    started = self._queued.pop(id(query), None)
                    if started is not None:
                        waits.total.append(now - started)
                        waits.self_ns.append(now - started)
            return inner(queries, *args, **kwargs)

        return wrapper

    def _put_histogram(self, func: Callable[..., Any]) -> Callable[..., Any]:
        """Span ``put_histogram`` and count the bytes it publishes."""
        inner = self._span(func, "store.publish")

        @functools.wraps(func)
        def wrapper(catalog: Any, key: Any, hist: Any, *args: Any, **kwargs: Any) -> Any:
            with self._lock:
                self.published_bytes += int(hist.size_bytes)
            return inner(catalog, key, hist, *args, **kwargs)

        return wrapper

    # -- reading -------------------------------------------------------
    def count(self, name: str) -> int:
        log = self.logs.get(name)
        return len(log.total) if log is not None else 0

    def median_ns(self, name: str, *, self_time: bool = False) -> float:
        """Median span time in nanoseconds (0.0 when the span never ran)."""
        log = self.logs.get(name)
        if log is None or not log.total:
            return 0.0
        values = sorted(log.self_ns if self_time else log.total)
        mid = len(values) // 2
        if len(values) % 2:
            return float(values[mid])
        return (values[mid - 1] + values[mid]) / 2.0


def _resolve_span_name(result: Any) -> str:
    """``cache.resolve.<source>``, with both store sources as ``store``."""
    if result is None:
        return "cache.resolve.error"
    source = str(result[1])
    return "cache.resolve." + ("store" if source.startswith("store") else source)
