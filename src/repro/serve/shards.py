"""Supervised shard pool: persistent fork workers over a catalog slice.

The "millions of users" deployment keeps estimation state resident in
long-lived worker processes instead of rebuilding per request.  Each
shard worker

* owns a **slice of the dataset catalog** (datasets are assigned
  round-robin over sorted names, so placement is deterministic);
* attaches the geometry **zero-copy** through the fork+shared-memory
  machinery (:class:`~repro.parallel.shm.SharedDataset` — coordinates
  cross the process boundary once, and worker *restarts* re-attach to
  the parent's still-open segments instead of re-shipping);
* serves ``prepare`` calls — build one histogram file for one owned
  dataset — over a pipe, under its own cooperative
  :class:`~repro.runtime.Deadline` scope (the parent ships the caller's
  remaining budget inside the message, so per-request deadlines thread
  all the way into worker builds).

A join query touching two datasets placed on *different* shards still
works: each side's ``prepare`` runs on the owner and the parent
performs the cheap O(cells) combine — the same two-phase split as
:class:`~repro.core.estimator.PreparedEstimator`.

Supervision (the robustness story):

* **health checks** — :meth:`ShardPool.ping` round-trips a message;
* **crash detection** — a dead process, broken pipe, or reply timeout
  marks the shard dead and counts a failure;
* **bounded restart with backoff** — restarts are *lazy* (performed by
  the next call once the breaker cooldown has passed — no supervisor
  thread, no blocking sleeps) and capped by ``max_restarts``, after
  which the shard is permanently failed;
* **per-shard circuit breaker** — consecutive failures open the
  breaker, whose cooldown doubles per consecutive open (bounded), and
  a half-open trial call closes it again on success.  While open, calls
  fail fast with :class:`~repro.errors.ShardUnavailableError` so the
  front door degrades instead of piling onto a sick worker.

Concurrency contract: the pool is **thread-safe**.  Each shard owns a
lock held across the entire supervised round-trip (breaker gate, lazy
restart, send, wait, classify), so concurrent callers — the server
dispatches ``pool.estimate`` from executor threads — can never
interleave messages on one pipe or receive another thread's reply;
breaker, stats, and restart state mutate only under that lock.  Calls
to *different* shards proceed in parallel.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from multiprocessing import get_all_start_methods, get_context
from typing import Any, Callable, Dict, Iterable, Mapping

from ..datasets import SpatialDataset
from ..errors import EstimatorUnavailable, ShardUnavailableError
from ..geometry import Rect
from ..histograms.file import HISTOGRAM_SCHEMES
from ..parallel.shm import DatasetMeta, SharedDataset, attach_dataset
from ..perf.cache import HistogramCache
from ..runtime import Deadline, runtime_scope
from ..store import ArtifactCatalog, materialize_histogram

__all__ = ["CircuitBreaker", "ShardStats", "ShardPool"]

Clock = Callable[[], float]


class CircuitBreaker:
    """Failure-counting breaker with escalating (bounded) cooldown.

    States: ``closed`` (calls flow), ``open`` (calls fail fast until the
    cooldown passes), ``half-open`` (one trial call allowed).  The
    cooldown doubles per consecutive open — ``cooldown_s * 2**(opens-1)``
    capped at ``max_cooldown_s`` — which doubles as the shard pool's
    restart backoff: a crashed worker is restarted by the first call the
    breaker lets through, so restart pacing *is* breaker pacing and no
    component ever sleeps.
    """

    def __init__(
        self,
        *,
        failure_threshold: int = 3,
        cooldown_s: float = 0.05,
        max_cooldown_s: float = 5.0,
        clock: Clock = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, got {failure_threshold}")
        if cooldown_s <= 0 or max_cooldown_s < cooldown_s:
            raise ValueError(
                f"need 0 < cooldown_s <= max_cooldown_s, got {cooldown_s}, {max_cooldown_s}"
            )
        self.failure_threshold = int(failure_threshold)
        self.cooldown_s = float(cooldown_s)
        self.max_cooldown_s = float(max_cooldown_s)
        self._clock = clock
        self._failures = 0  #: consecutive failures while closed
        self._opens = 0  #: consecutive opens (resets on success)
        self.opens_total = 0
        self.failures_total = 0
        self._open_until: float | None = None
        self._half_open = False

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"``, or ``"half-open"`` (observable)."""
        if self._open_until is None:
            return "closed"
        if self._half_open or self._clock() >= self._open_until:
            return "half-open"
        return "open"

    def allow(self) -> bool:
        """May a call proceed right now?  (Half-open admits one trial.)"""
        if self._open_until is None:
            return True
        if self._half_open:
            return False  # a trial is already in flight
        if self._clock() >= self._open_until:
            self._half_open = True
            return True
        return False

    def record_success(self) -> None:
        """A call completed: close fully and reset the escalation."""
        self._failures = 0
        self._opens = 0
        self._open_until = None
        self._half_open = False

    def record_failure(self) -> None:
        """A call failed: count it; open (with escalating cooldown) when
        the threshold is reached or a half-open trial fails."""
        self.failures_total += 1
        self._failures += 1
        if self._half_open or self._failures >= self.failure_threshold:
            self._opens += 1
            self.opens_total += 1
            pause = min(
                self.cooldown_s * (2 ** (self._opens - 1)), self.max_cooldown_s
            )
            self._open_until = self._clock() + pause
            self._half_open = False
            self._failures = 0

    def snapshot(self) -> dict[str, object]:
        """Plain-dict view for reports and benchmark JSON."""
        return {
            "state": self.state,
            "opens_total": self.opens_total,
            "failures_total": self.failures_total,
        }

    def __repr__(self) -> str:
        return f"CircuitBreaker(state={self.state!r}, opens={self.opens_total})"


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

def _shard_worker(
    conn: Any,
    metas: "list[DatasetMeta]",
    hook_factory: "Callable[[], Any] | None",
    store_root: "str | None",
) -> None:
    """Body of one persistent shard worker process.

    Attaches its catalog slice over shared memory, then serves messages
    until ``shutdown`` or pipe EOF.  When ``store_root`` is given the
    worker opens the artifact catalog **read-only** at startup and
    answers ``prepare`` from prebuilt mmap entries when one matches —
    a warm start shares page-cache pages across every forked worker
    instead of rebuilding per-process heap copies; only true misses pay
    the build.  Logical failures (bad scheme, unknown dataset, build
    errors, deadline expiry) reply ``("error", detail)`` and keep the
    worker alive; only process death (crash, kill, injected
    ``BaseException``) is a supervision event.
    """
    catalog = {meta[0]: attach_dataset(meta) for meta in metas}
    store = (
        ArtifactCatalog(store_root, read_only=True) if store_root is not None else None
    )
    hook = hook_factory() if hook_factory is not None else None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return  # parent went away; nothing to serve
        kind = message[0]
        if kind == "shutdown":
            return
        if kind == "ping":
            conn.send(("pong", sorted(catalog)))
            continue
        # ("prepare", name, scheme, level, extent|None, budget_s|None)
        _, name, scheme, level, extent_tuple, budget_s = message
        try:
            dataset = catalog[name]
            extent = Rect(*extent_tuple) if extent_tuple is not None else dataset.extent
            hist: Any = None
            source = "build"
            if store is not None and scheme in HISTOGRAM_SCHEMES:
                key = HistogramCache.key_for(dataset, scheme, int(level), extent)
                stored = store.load_histogram(key)
                if stored is not None:
                    # The reply crosses a pipe (pickled), so detach from
                    # the mmap; the load still skipped the O(data) build.
                    hist = materialize_histogram(stored)
                    source = "store"
            if hist is None:
                deadline = Deadline(max(0.0, budget_s)) if budget_s is not None else None
                with runtime_scope(deadline=deadline, hook=hook):
                    hist = HISTOGRAM_SCHEMES[scheme].build(dataset, int(level), extent=extent)
            conn.send(("ok", (hist, source)))
        # The reply channel is this worker's only way to surface a
        # failure; swallowing nothing, it reports everything and stays
        # alive for the next request (crash-only faults are
        # BaseExceptions and still kill the process).
        except Exception as exc:  # repro-lint: disable=R005  # noqa: BLE001
            conn.send(("error", f"{type(exc).__name__}: {exc}"))


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------

@dataclass
class ShardStats:
    """Supervision counters for one shard."""

    calls: int = 0
    failures: int = 0  #: crash/timeout/pipe failures (not logical errors)
    restarts: int = 0
    errors: int = 0  #: logical errors replied by a healthy worker
    store_hits: int = 0  #: prepares answered from the worker's artifact catalog

    def snapshot(self) -> dict[str, int]:
        """Plain-dict view for reports and benchmark JSON."""
        return {
            "calls": self.calls,
            "failures": self.failures,
            "restarts": self.restarts,
            "errors": self.errors,
            "store_hits": self.store_hits,
        }


class _Shard:
    """Parent-side supervisor state for one worker (internal)."""

    __slots__ = (
        "shard_id", "metas", "process", "conn", "breaker", "stats", "failed", "lock"
    )

    def __init__(
        self, shard_id: int, metas: "list[DatasetMeta]", breaker: CircuitBreaker
    ) -> None:
        self.shard_id = shard_id
        self.metas = metas
        self.process: Any = None  # guarded-by: lock
        self.conn: Any = None  # guarded-by: lock
        self.breaker = breaker
        self.stats = ShardStats()  # guarded-by: lock
        self.failed = False  # guarded-by: lock — out of restart budget
        #: Serializes the whole round-trip: one pipe, one caller at a time.
        self.lock = threading.Lock()


class ShardPool:
    """A supervised pool of persistent estimation workers.

    Parameters
    ----------
    catalog:
        The datasets to shard — a mapping or iterable of
        :class:`SpatialDataset`.  Placement is deterministic: sorted
        names, round-robin over ``num_shards``.
    num_shards:
        Worker process count (each owns a catalog slice).
    call_timeout_s:
        Reply deadline per worker call; an overdue reply is treated as
        a crash (the worker is killed and restarted under backoff).
    max_restarts:
        Restart budget per shard; once exhausted the shard is
        permanently failed and its calls raise
        :class:`ShardUnavailableError` (``state="failed"``).
    failure_threshold / cooldown_s / max_cooldown_s:
        Per-shard :class:`CircuitBreaker` configuration; the escalating
        cooldown is also the restart backoff.
    worker_hook_factory:
        Optional zero-arg factory run *inside each worker* to build a
        runtime hook (fault injection for chaos tests).  Inherited over
        fork, so closures and shared ``multiprocessing.Value`` counters
        work.
    store_root:
        Optional :class:`~repro.store.ArtifactCatalog` root.  Each
        worker opens it read-only at startup and serves ``prepare``
        from prebuilt mmap entries when the key matches (counted in
        ``ShardStats.store_hits``), falling back to building.  Prewarm
        with ``python -m repro.store prewarm`` for warm cold-starts.
    clock:
        Monotonic clock for the breakers (tests inject a fake).

    Start with :meth:`start` (or as a context manager); always
    :meth:`close` — it shuts workers down and unlinks the shared
    segments.
    """

    def __init__(
        self,
        catalog: "Mapping[str, SpatialDataset] | Iterable[SpatialDataset]",
        num_shards: int = 2,
        *,
        call_timeout_s: float = 10.0,
        max_restarts: int = 3,
        failure_threshold: int = 3,
        cooldown_s: float = 0.05,
        max_cooldown_s: float = 5.0,
        worker_hook_factory: "Callable[[], Any] | None" = None,
        store_root: "str | os.PathLike[str] | None" = None,
        clock: Clock = time.monotonic,
    ) -> None:
        datasets = (
            dict(catalog) if isinstance(catalog, Mapping)
            else {ds.name: ds for ds in catalog}
        )
        if not datasets:
            raise ValueError("shard pool needs at least one dataset")
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if "fork" not in get_all_start_methods():
            raise EstimatorUnavailable(
                "shard pool requires the fork start method (zero-copy "
                "shared-memory attach); not available on this platform"
            )
        self.num_shards = min(int(num_shards), len(datasets))
        self.call_timeout_s = float(call_timeout_s)
        self.max_restarts = int(max_restarts)
        self._ctx = get_context("fork")
        self._clock = clock
        self._hook_factory = worker_hook_factory
        self._store_root = os.fspath(store_root) if store_root is not None else None
        self._datasets = datasets
        self._exports: Dict[str, SharedDataset] = {}
        self._placement: Dict[str, int] = {
            name: i % self.num_shards for i, name in enumerate(sorted(datasets))
        }
        self._shards: list[_Shard] = [
            _Shard(
                shard_id,
                [],
                CircuitBreaker(
                    failure_threshold=failure_threshold,
                    cooldown_s=cooldown_s,
                    max_cooldown_s=max_cooldown_s,
                    clock=clock,
                ),
            )
            for shard_id in range(self.num_shards)
        ]
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------
    def start(self) -> "ShardPool":
        """Export the catalog over shared memory and spawn every worker."""
        if self._started:
            return self
        for name, dataset in self._datasets.items():
            self._exports[name] = SharedDataset(dataset)
        for shard in self._shards:
            shard.metas = [
                self._exports[name].meta()
                for name, owner in sorted(self._placement.items())
                if owner == shard.shard_id
            ]
            with shard.lock:
                self._spawn(shard)
        self._started = True
        return self

    def close(self) -> None:
        """Shut workers down and unlink the shared segments (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for shard in self._shards:
            with shard.lock:  # let any in-flight round-trip finish first
                process, conn = shard.process, shard.conn
                shard.process, shard.conn = None, None
            if conn is not None:
                try:
                    conn.send(("shutdown",))
                except (BrokenPipeError, OSError):
                    pass
            if process is not None:
                process.join(timeout=1.0)
                if process.is_alive():
                    process.kill()
                    process.join(timeout=1.0)
            if conn is not None:
                conn.close()
        for export in self._exports.values():
            export.cleanup()
        self._exports.clear()

    def __enter__(self) -> "ShardPool":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def shard_for(self, name: str) -> int:
        """The shard that owns dataset ``name`` (deterministic placement)."""
        try:
            return self._placement[name]
        except KeyError:
            raise KeyError(
                f"dataset {name!r} is not in the shard pool's catalog"
            ) from None

    def ping(self, shard_id: int) -> bool:
        """Health check: does the shard answer a round-trip right now?

        False for a dead/unresponsive/permanently-failed shard; never
        raises and never restarts — observation only.
        """
        shard = self._shards[shard_id]
        with shard.lock:
            if shard.failed or shard.process is None or not shard.process.is_alive():
                return False
            try:
                shard.conn.send(("ping",))
                if not shard.conn.poll(self.call_timeout_s):
                    return False
                reply = shard.conn.recv()
            except (BrokenPipeError, EOFError, OSError):
                return False
            return bool(reply and reply[0] == "pong")

    def prepare(
        self,
        name: str,
        scheme: str = "gh",
        level: int = 7,
        *,
        extent: Rect | None = None,
        budget_s: "float | None" = None,
    ) -> Any:
        """Build one histogram file on the owning shard.

        ``budget_s`` (remaining seconds of the caller's deadline) is
        shipped in the message and installed as a cooperative
        :class:`Deadline` inside the worker, so a slow build times out
        *in the worker* with the usual taxonomy instead of only at the
        supervisor's pipe timeout.  A worker attached to an artifact
        catalog may answer from a prebuilt entry instead of building
        (``ShardStats.store_hits``).
        """
        shard = self._shards[self.shard_for(name)]
        extent_tuple = extent.as_tuple() if extent is not None else None
        hist, source = self._call(
            shard, ("prepare", name, scheme, int(level), extent_tuple, budget_s)
        )
        if source == "store":
            with shard.lock:
                shard.stats.store_hits += 1
        return hist

    def estimate(
        self,
        name1: str,
        name2: str,
        scheme: str = "gh",
        level: int = 7,
        *,
        budget_s: "float | None" = None,
    ) -> float:
        """Selectivity of ``name1 ⋈ name2`` via shard-built histograms.

        Each side's ``prepare`` runs on its owning shard (both sides on
        one worker when co-located); the O(cells) combine runs here.
        Empty sides answer ``0.0`` with no worker calls, matching
        :class:`~repro.core.estimator.PreparedEstimator` semantics.

        ``budget_s`` covers the *whole* estimate: the second ``prepare``
        ships only what the first left over, so a request with ``t``
        seconds remaining can never consume ~``2t`` of worker time.
        """
        ds1, ds2 = self._datasets[name1], self._datasets[name2]
        if len(ds1) == 0 or len(ds2) == 0:
            return 0.0
        extent = _shared_extent(ds1, ds2)
        deadline = Deadline(budget_s) if budget_s is not None else None

        def remaining() -> "float | None":
            if deadline is None:
                return None
            return max(0.0, deadline.remaining)

        hist1 = self.prepare(name1, scheme, level, extent=extent, budget_s=remaining())
        hist2 = self.prepare(name2, scheme, level, extent=extent, budget_s=remaining())
        return float(hist1.estimate_selectivity(hist2))

    def stats(self) -> dict[str, object]:
        """Pool-wide supervision snapshot for reports and benchmarks."""
        per_shard: list[dict[str, object]] = []
        for shard in self._shards:
            with shard.lock:  # consistent snapshot vs. restarts in _call
                per_shard.append(
                    {
                        "shard_id": shard.shard_id,
                        "alive": shard.process is not None
                        and shard.process.is_alive(),
                        "failed": shard.failed,
                        "datasets": len(shard.metas),
                        **shard.stats.snapshot(),
                        "breaker": shard.breaker.snapshot(),
                    }
                )
        return {
            "num_shards": self.num_shards,
            "restarts": sum(s["restarts"] for s in per_shard),  # type: ignore[misc]
            "failures": sum(s["failures"] for s in per_shard),  # type: ignore[misc]
            "breaker_opens": sum(
                s["breaker"]["opens_total"] for s in per_shard  # type: ignore[index]
            ),
            "store_hits": sum(s["store_hits"] for s in per_shard),  # type: ignore[misc]
            "shards": per_shard,
        }

    def chaos_kill(self, shard_id: int) -> bool:
        """Chaos helper: SIGKILL one worker (crash injection for tests
        and the fault-regime benchmark).  True if a live worker was hit.

        Deliberately does *not* take the shard lock: chaos must be able
        to strike mid-call, and ``kill`` is a plain signal that never
        touches the pipe (the victim's supervisor sees a pipe/timeout
        failure and handles it under its own lock).
        """
        shard = self._shards[shard_id]
        # Lock-free by contract (see docstring): a signal races safely.
        process = shard.process  # repro-lint: disable=R012
        if process is None or not process.is_alive():
            return False
        process.kill()
        process.join(timeout=5.0)
        return True

    # ------------------------------------------------------------------
    def _spawn(self, shard: _Shard) -> None:
        """Start (or replace) the worker process behind ``shard``."""
        if shard.conn is not None:
            shard.conn.close()
        parent_conn, child_conn = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_shard_worker,
            args=(child_conn, shard.metas, self._hook_factory, self._store_root),
            daemon=True,
            name=f"repro-serve-shard-{shard.shard_id}",
        )
        process.start()
        child_conn.close()  # the worker holds its own copy
        shard.process, shard.conn = process, parent_conn

    def _mark_crashed(self, shard: _Shard, why: str) -> ShardUnavailableError:
        """Account a crash/timeout, kill the remains, open-or-count on
        the breaker, and build the error for the caller."""
        shard.stats.failures += 1
        shard.breaker.record_failure()
        if shard.process is not None and shard.process.is_alive():
            shard.process.kill()
            shard.process.join(timeout=5.0)
        if shard.conn is not None:
            shard.conn.close()
        shard.process, shard.conn = None, None
        return ShardUnavailableError(
            f"shard {shard.shard_id} {why}",
            shard_id=shard.shard_id,
            state="dead",
        )

    def _ensure_running(self, shard: _Shard) -> None:
        """Lazy bounded restart: bring a dead worker back, or give up."""
        if shard.process is not None and shard.process.is_alive():
            return
        if shard.stats.restarts >= self.max_restarts:
            shard.failed = True
            raise ShardUnavailableError(
                f"shard {shard.shard_id} exhausted its restart budget "
                f"({self.max_restarts})",
                shard_id=shard.shard_id,
                state="failed",
            )
        shard.stats.restarts += 1
        self._spawn(shard)

    def _call(self, shard: _Shard, message: tuple) -> Any:
        """One supervised round-trip: breaker gate, lazy restart, send,
        bounded wait, classify the reply.

        Runs entirely under the shard's lock — the pipe carries no
        request ids, so correctness requires that one caller's
        send/poll/recv never interleaves with another's.
        """
        if self._closed or not self._started:
            raise EstimatorUnavailable("shard pool is not running")
        with shard.lock:
            return self._call_locked(shard, message)

    def _call_locked(self, shard: _Shard, message: tuple) -> Any:
        if shard.failed:
            raise ShardUnavailableError(
                f"shard {shard.shard_id} is permanently failed",
                shard_id=shard.shard_id,
                state="failed",
            )
        if not shard.breaker.allow():
            raise ShardUnavailableError(
                f"shard {shard.shard_id} circuit breaker is open",
                shard_id=shard.shard_id,
                state="open",
            )
        shard.stats.calls += 1
        try:
            self._ensure_running(shard)
        except ShardUnavailableError:
            shard.breaker.record_failure()
            raise
        try:
            shard.conn.send(message)
            if not shard.conn.poll(self.call_timeout_s):
                raise _CallTimeout()
            reply = shard.conn.recv()
        except _CallTimeout:
            raise self._mark_crashed(
                shard, f"did not reply within {self.call_timeout_s:g}s"
            ) from None
        except (BrokenPipeError, EOFError, OSError) as exc:
            raise self._mark_crashed(
                shard, f"pipe failed ({type(exc).__name__})"
            ) from None
        if reply[0] == "error":
            # A *logical* failure from a healthy worker: report it, but
            # do not trip the breaker — the worker answered in time.
            shard.stats.errors += 1
            shard.breaker.record_success()
            raise EstimatorUnavailable(f"shard {shard.shard_id}: {reply[1]}")
        shard.breaker.record_success()
        return reply[1]

    def __repr__(self) -> str:
        return (
            f"ShardPool(shards={self.num_shards}, "
            f"datasets={len(self._datasets)}, started={self._started})"
        )


class _CallTimeout(Exception):
    """Internal: a worker reply missed the supervisor's pipe deadline."""


def _shared_extent(ds1: SpatialDataset, ds2: SpatialDataset) -> Rect:
    """The pair's common universe (mismatched extents are a client error)."""
    if ds1.extent != ds2.extent:
        raise ValueError(
            f"datasets {ds1.name!r} and {ds2.name!r} must share a common extent"
        )
    return ds1.extent
