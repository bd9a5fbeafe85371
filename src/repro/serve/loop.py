"""The serving front door: admission → rung selection → execution.

:class:`EstimationServer` is the asyncio entry point that turns the
batch-oriented estimation stack into a long-running service.  One
:meth:`~EstimationServer.submit` call walks the full pipeline:

1. **admission** — a bounded queue plus per-tenant token buckets
   (:mod:`repro.serve.admission`); over capacity means an immediate
   typed :class:`~repro.errors.ServiceOverloadError`, never unbounded
   buffering;
2. **validation and rung selection** — an unknown scheme, level or
   dataset, or a pair without a common extent, fails the request
   outright; otherwise measured queue
   pressure picks the starting rung on the requested estimator's
   :func:`~repro.service.resilient.default_fallback_chain`
   (:mod:`repro.serve.degrade`);
3. **execution** — the requested estimator runs through the
   micro-batcher (:mod:`repro.serve.batcher`) into
   :func:`~repro.perf.batch.estimate_many` over the shared
   :class:`~repro.perf.cache.HistogramCache`; the histogram rungs below
   it answer from the same cache; the floor is the Aref–Samet closed
   form.  A rung that *fails* (batch error, deadline expiry, invalid
   value) moves one rung down the chain instead of failing the request,
   through the same :class:`~repro.service.resilient.Descent` walker
   :class:`~repro.service.resilient.ResilientEstimator` uses;
4. **provenance** — every response carries a
   :class:`~repro.serve.degrade.ServeProvenance` naming the rung that
   actually answered, so a degraded answer can never masquerade as a
   full-quality one.

Before step 1 a *fast lane* answers on the event loop, with no queue
slot and no thread hop, when it can do so without blocking: a tier-0
memo hit replays a previous full-rung answer (``via="memo"``), and a
pair whose two files are dense, heap-resident L1 entries of at most
level 7 is combined by the same ``estimate_selectivity`` call
``estimate_many`` makes (``via="l1"``).  Only reads that must unpack,
load or build a file cross to the batcher.

Per-request deadlines thread end to end: the budget is checked at
submission and shipped into the batcher's worker thread (or the
executor thread of a lower rung) as a cooperative
:class:`~repro.runtime.Deadline` scope.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence, cast

from ..core.estimator import (
    BasicGHEstimator,
    GHEstimator,
    JoinSelectivityEstimator,
    ParametricEstimator,
    PHEstimator,
    create_estimator,
)
from ..datasets import SpatialDataset
from ..errors import EstimatorUnavailable, ServiceOverloadError
from ..histograms import MAX_LEVEL
from ..histograms.file import HISTOGRAM_SCHEMES, Histogram
from ..obs import Counters
from ..perf.batch import BatchQuery, estimate_many
from ..perf.cache import CacheKey, HistogramCache
from ..perf.memo import EstimateCache, scheme_formula
from ..runtime import Deadline, active_scope, runtime_scope
from ..service.resilient import Descent, default_fallback_chain
from .admission import AdmissionController
from .batcher import BatchRunner, MicroBatcher
from .degrade import DegradationLadder, DegradePolicy, ServeProvenance, ServiceRung

if TYPE_CHECKING:
    from ..store import ArtifactCatalog

__all__ = ["ServeRequest", "ServeResponse", "ServerConfig", "EstimationServer"]


@dataclass(frozen=True)
class ServeRequest:
    """One selectivity question addressed to the server's catalog.

    Datasets are referenced **by name** — the server owns the catalog,
    the way a database owns its tables.  ``timeout_s`` (falling back to
    the server's default) becomes the request's end-to-end cooperative
    deadline.
    """

    ds1: str
    ds2: str
    scheme: str = "gh"
    level: int = 7
    tenant: str = "default"
    timeout_s: "float | None" = None

    @property
    def requested(self) -> str:
        """Quality label, e.g. ``"gh(level=7)"`` — the memo's formula."""
        return scheme_formula(self.scheme, self.level)


@dataclass(frozen=True)
class ServeResponse:
    """A served estimate plus the provenance of how it was produced."""

    selectivity: float
    provenance: ServeProvenance
    latency_s: float  #: wall-clock time inside the server, admission included

    @property
    def degraded(self) -> bool:
        """Convenience mirror of ``provenance.degraded``."""
        return self.provenance.degraded


@dataclass(frozen=True)
class ServerConfig:
    """Tunables for one :class:`EstimationServer` instance.  The batcher is
    self-clocked, with no delay knob (traced perfbench serve-miss
    ``serve.batch_wait_ms``: 2.33 ms under the former 2 ms window, 0.17 ms
    without it)."""

    max_depth: int = 64  #: bounded admission queue capacity
    tenant_rate: "float | None" = None  #: per-tenant tokens/s (None = no quotas)
    tenant_burst: float = 20.0  #: per-tenant bucket burst
    policy: DegradePolicy = field(default_factory=DegradePolicy)
    max_batch: int = 16  #: most queries one micro-batch runs
    default_timeout_s: "float | None" = None  #: deadline when requests carry none
    cache_bytes: int = 64 * 1024 * 1024  #: shared histogram cache budget
    #: tier-0 estimate-memo budget (0 = no fast lane: no memo replays
    #: and no L1 combines on the event loop)
    memo_entries: int = 64 * 1024


class EstimationServer:
    """Async front door over the estimation stack (single event loop).

    Parameters
    ----------
    catalog:
        The served datasets — a mapping or iterable of
        :class:`SpatialDataset`; requests reference them by name.
    config:
        :class:`ServerConfig` tunables (defaults are test-friendly).
    batch_runner:
        Override for the micro-batcher's synchronous runner (chaos tests
        inject failures here).  The default runs
        :func:`~repro.perf.batch.estimate_many` against the server's
        shared :class:`~repro.perf.cache.HistogramCache` under the
        batch's tightest deadline.
    store:
        Optional :class:`~repro.store.ArtifactCatalog` attached as the
        histogram cache's L2 tier.  ``cached-coarse`` responses then
        record honest provenance: ``via="store"`` when a side came off
        disk and none scanned the data, ``via="build"`` when any side
        had to scan the data.

    Use as an async context manager, or call :meth:`aclose` when done.
    """

    def __init__(
        self,
        catalog: "Mapping[str, SpatialDataset] | Iterable[SpatialDataset]",
        config: ServerConfig | None = None,
        *,
        batch_runner: BatchRunner | None = None,
        store: "ArtifactCatalog | None" = None,
    ) -> None:
        self.catalog: "dict[str, SpatialDataset]" = (
            dict(catalog) if isinstance(catalog, Mapping)
            else {ds.name: ds for ds in catalog}
        )
        if not self.catalog:
            raise ValueError("the server needs at least one dataset to serve")
        self.config = config if config is not None else ServerConfig()
        self.admission = AdmissionController(
            self.config.max_depth,
            tenant_rate=self.config.tenant_rate,
            tenant_burst=self.config.tenant_burst,
        )
        self.ladder = DegradationLadder(self.config.policy)
        self.store = store
        self.cache = HistogramCache(self.config.cache_bytes, store=store)
        self.memo: "EstimateCache | None" = (
            EstimateCache(self.config.memo_entries)
            if self.config.memo_entries > 0
            else None
        )
        # Fast-lane answers: memo hits and L1 combines.  They share the
        # ladder's lock, so an answer tallies its counter and the
        # ladder's ``full`` at once.
        self._counters = Counters("fast_hits", "fast_combines", lock=self.ladder.stats.lock)
        #: Fast-lane provenance by (requested label, queue depth, via):
        #: frozen and fixed by that triple, so each is built once.
        self._fast_provenances: "dict[tuple[str, int, str], ServeProvenance]" = {}
        # Fallback chains by (scheme, level): every rung is stateless.
        self._chains: "dict[tuple[str, int], tuple[JoinSelectivityEstimator, ...]]" = {}
        self.batcher = MicroBatcher(
            batch_runner if batch_runner is not None else self._default_runner,
            max_batch=self.config.max_batch,
        )
        self._closed = False

    # ------------------------------------------------------------------
    async def __aenter__(self) -> "EstimationServer":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()

    async def aclose(self) -> None:
        """Flush the batcher and stop accepting work (idempotent)."""
        if self._closed:
            return
        self._closed = True
        await self.batcher.aclose()

    # ------------------------------------------------------------------
    async def submit(self, request: ServeRequest) -> ServeResponse:
        """Serve one request through admission, the ladder, and descent.

        Raises :class:`ServiceOverloadError` when admission rejects the
        request or pressure selects the ``shed`` rung, and
        :class:`ValueError` for an unknown scheme, level or dataset or
        for a pair without a common extent; any other failure moves one
        rung down the requested estimator's fallback chain and only
        propagates if even the closed-form floor cannot answer — a
        degraded *honest* answer always beats a confident wrong one, and
        an error always beats a silent zero.
        """
        if self._closed:
            raise EstimatorUnavailable("EstimationServer is closed")
        started = time.monotonic()
        # Fast lane: a tier-0 memo hit, or a combine of two files
        # resident in L1, answers on the event loop with no queue slot,
        # no thread hop, no deadline bookkeeping — the value is the one
        # the batcher would return, bit for bit.  Tenant quotas still
        # apply (a rate contract bills every answered request); the
        # bounded queue does not (the lane consumes none of the capacity
        # the queue protects).
        requested = request.requested
        fast = self._fast_lane(request, requested)
        if fast is not None:
            value, via = fast
            try:
                self.admission.charge(request.tenant)
            except ServiceOverloadError:
                self.ladder.record(ServiceRung.SHED)
                raise
            with self._counters.lock:
                self._counters.add_held("fast_hits" if via == "memo" else "fast_combines")
                self.ladder.stats.add_held(ServiceRung.FULL.value)
            return ServeResponse(
                selectivity=value,
                provenance=self._fast_provenance(requested, via),
                latency_s=time.monotonic() - started,
            )
        budget = (
            request.timeout_s
            if request.timeout_s is not None
            else self.config.default_timeout_s
        )
        deadline = Deadline(budget) if budget is not None else None
        try:
            ticket = self.admission.admit(request.tenant)
        except ServiceOverloadError:
            self.ladder.record(ServiceRung.SHED)
            raise
        # Pressure excludes this request's own freshly-taken slot, so a
        # lone request on an idle server always sees 0.0 (never sheds).
        pressure = self.admission.pressure_ahead
        try:
            ds1, ds2 = self._resolve(request)
            selected = self.ladder.select(pressure)
            if selected is ServiceRung.SHED:
                self.ladder.record(selected)
                raise ServiceOverloadError(
                    f"shedding at pressure {pressure:.2f} "
                    f"(depth {self.admission.depth}/{self.admission.max_depth})",
                    reason="shed",
                    queue_depth=self.admission.depth,
                    tenant=request.tenant,
                )
            chain = self._chain(request.scheme, request.level)
            floor = len(chain) - 1
            start = {ServiceRung.FULL: 0, ServiceRung.CACHED: 1}.get(selected, floor)
            # Failure descent: any rung error — batch failure, deadline
            # expiry, poison build, invalid value — drops the walk one
            # rung rather than failing an admitted request outright.
            walk = Descent(chain, start)
            via = "batch"
            for rung in walk:
                with walk.attempt():
                    if walk.index == 0:
                        query = BatchQuery(ds1, ds2, request.scheme, request.level)
                        walk.value = await self.batcher.submit(query, deadline)
                    else:
                        walk.value, via = await asyncio.get_running_loop().run_in_executor(
                            None, lambda: self._fallback(rung, ds1, ds2, deadline)
                        )
            if walk.error is not None:
                raise walk.error  # even the closed-form floor failed
            answered = (
                ServiceRung.FULL if walk.index == 0
                else ServiceRung.PARAMETRIC if walk.index == floor
                else ServiceRung.CACHED
            )
            self.ladder.record(answered)
            reason = walk.reason
            provenance = ServeProvenance(
                rung=answered.value,
                requested=requested,
                degraded=walk.index > 0,
                pressure=pressure,
                reason=reason if reason else (
                    "" if selected is ServiceRung.FULL else f"pressure {pressure:.2f}"
                ),
                via=via,
                attempts=tuple(walk.attempts),
            )
            return ServeResponse(
                selectivity=walk.value,
                provenance=provenance,
                latency_s=time.monotonic() - started,
            )
        finally:
            self.admission.release(ticket)

    # ------------------------------------------------------------------
    def _chain(self, scheme: str, level: int) -> "tuple[JoinSelectivityEstimator, ...]":
        """The requested estimator's fallback chain, built once per
        ``(scheme, level)``."""
        chain = self._chains.get((scheme, level))
        if chain is None:
            chain = default_fallback_chain(create_estimator(scheme, level=level))
            self._chains[scheme, level] = chain
        return chain

    def _fast_lane(
        self, request: ServeRequest, requested: str
    ) -> "tuple[float, str] | None":
        """The full-rung answer and its ``via`` when the event loop can
        give it without blocking, else ``None``.

        ``"memo"``: the tier-0 memo holds the answer.  ``"l1"``: both
        files are dense, heap-resident L1 entries of at most level 7
        (:meth:`~repro.perf.cache.HistogramCache.probe_resident`), so
        the answer is their combine, the very call ``estimate_many``
        makes, and it is memoized like the batcher's.

        Fingerprints are *peeked*, never folded — a cold fingerprint
        memo (new or just-mutated dataset) simply routes to the slow
        path, which warms it off-loop.  Unknown dataset names, empty
        sides, extent mismatches and an active fault hook also
        decline, and so does a pair that would need an unpack, a store
        read or a build: nothing on the loop allocates a dense file,
        reads a file mapping or scans rectangles, and every error and
        edge case keeps its slow-path semantics.
        """
        if self.memo is None:
            return None
        ds1 = self.catalog.get(request.ds1)
        ds2 = self.catalog.get(request.ds2)
        if ds1 is None or ds2 is None:
            return None
        if len(ds1) == 0 or len(ds2) == 0 or ds1.extent != ds2.extent:
            return None
        key = EstimateCache.peek_key_for(ds1, ds2, requested, ds1.extent)
        hit = self.memo.get(key)
        if hit is not None:
            return hit, "memo"
        if key is None:
            return None
        scope = active_scope()
        if scope is not None and scope.hook is not None:
            return None  # the memo's no-poison rule
        level = int(request.level)
        pair = self.cache.probe_resident(
            CacheKey(key.fingerprint1, request.scheme, level, key.extent),
            CacheKey(key.fingerprint2, request.scheme, level, key.extent),
        )
        if pair is None:
            return None
        # A resident entry is never packed.
        hist1, hist2 = cast("tuple[Histogram, Histogram]", pair)
        value = hist1.estimate_selectivity(hist2)
        if not math.isfinite(value) or value < 0:
            return None  # the slow path descends past an invalid value
        self.memo.put(key, value)
        return value, "l1"

    def _fast_provenance(self, requested: str, via: str) -> ServeProvenance:
        """The provenance of a fast-lane answer, built once per
        (requested label, queue depth, via) and then reused."""
        key = (requested, self.admission.depth, via)
        provenance = self._fast_provenances.get(key)
        if provenance is None:
            provenance = self._fast_provenances[key] = ServeProvenance(
                rung=ServiceRung.FULL.value,
                requested=requested,
                degraded=False,
                pressure=self.admission.pressure,
                via=via,
            )
        return provenance

    def _fallback(
        self,
        rung: JoinSelectivityEstimator,
        ds1: SpatialDataset,
        ds2: SpatialDataset,
        deadline: Deadline | None,
    ) -> "tuple[float, str]":
        """One rung below the requested estimator (runs on an executor thread).

        A histogram rung resolves both sides through the shared cache —
        an L1 hit, an mmap load from the attached artifact catalog, or
        a fresh build — and runs the rung's O(cells) combine, all inside
        a fresh cooperative deadline scope, because runtime scopes do
        not cross thread boundaries.
        The closed-form floor needs four first-order statistics and no
        scope: it cannot time out.

        Returns ``(selectivity, via)`` where ``via`` summarises the two
        sides' sources honestly: ``"build"`` if any side scanned the
        data, else ``"store"`` if any side came off the catalog, else
        ``"local"`` (pure in-memory cache, or the closed form).
        """
        if isinstance(rung, ParametricEstimator):
            # Annotated so the lint call graph dispatches this call to the
            # closed form alone, not to every estimator's ``estimate``.
            floor: ParametricEstimator = rung
            return floor.estimate(ds1, ds2), "local"
        if not isinstance(rung, (GHEstimator, PHEstimator, BasicGHEstimator)):
            raise TypeError(f"no serving path for fallback rung {rung!r}")
        if len(ds1) == 0 or len(ds2) == 0:
            return 0.0, "local"
        remaining = (
            Deadline(max(0.0, deadline.remaining)) if deadline is not None else None
        )
        with runtime_scope(deadline=remaining):
            hist1, src1 = self.cache.resolve(ds1, rung.name, rung.level, extent=ds1.extent)
            hist2, src2 = self.cache.resolve(ds2, rung.name, rung.level, extent=ds1.extent)
            value = float(rung.combine(hist1, hist2))
        sources = (src1, src2)
        if "build" in sources:
            via = "build"
        elif "store" in sources:
            via = "store"
        else:
            via = "local"
        return value, via

    def _default_runner(
        self, queries: Sequence[BatchQuery], budget_s: "float | None"
    ) -> "list[float]":
        """Default micro-batch runner: ``estimate_many`` + shared cache.

        Runs on the batcher's worker thread, so it installs its own
        runtime scope from the batch's tightest remaining budget.
        """
        deadline = Deadline(budget_s) if budget_s is not None else None
        with runtime_scope(deadline=deadline):
            return estimate_many(queries, cache=self.cache, memo=self.memo)

    def _resolve(self, request: ServeRequest) -> "tuple[SpatialDataset, SpatialDataset]":
        """Validate the request and look both datasets up; an unknown
        scheme, level or dataset, or a pair without a common extent,
        fails the request itself (a client error is not an overload and
        must not degrade)."""
        if request.scheme not in HISTOGRAM_SCHEMES:
            raise ValueError(
                f"unknown scheme {request.scheme!r}; choose from {sorted(HISTOGRAM_SCHEMES)}"
            )
        if not 0 <= request.level <= MAX_LEVEL:
            raise ValueError(f"level must be in [0, {MAX_LEVEL}], got {request.level}")
        try:
            ds1, ds2 = self.catalog[request.ds1], self.catalog[request.ds2]
        except KeyError as exc:
            raise ValueError(
                f"unknown dataset {exc.args[0]!r}; the catalog serves "
                f"{sorted(self.catalog)}"
            ) from None
        if ds1.extent != ds2.extent:
            raise ValueError(
                f"datasets {ds1.name!r} and {ds2.name!r} must share a common extent"
            )
        return ds1, ds2

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, object]:
        """One observability snapshot across every pipeline stage."""
        payload: "dict[str, object]" = {
            "admission": self.admission.stats.snapshot(),
            "depth": self.admission.depth,
            "pressure": self.admission.pressure,
            "rungs": self.ladder.stats.snapshot(),
            "batcher": self.batcher.stats.snapshot(),
            "cache": self.cache.stats.snapshot(),
            "memo": {
                **(self.memo.stats.snapshot() if self.memo is not None else {}),
                "entries": len(self.memo) if self.memo is not None else 0,
                **self._counters.snapshot(),
            },
        }
        if self.store is not None:
            payload["store"] = self.store.stats.snapshot()
        return payload

    def __repr__(self) -> str:
        return (
            f"EstimationServer(datasets={len(self.catalog)}, "
            f"depth={self.admission.depth}/{self.admission.max_depth})"
        )
