"""Micro-batching: coalesce concurrent queries into one ``estimate_many``.

A serving loop receives queries one at a time, but
:func:`repro.perf.estimate_many` is dramatically cheaper per query when
given many at once (cross-query build dedup + cache).  The
:class:`MicroBatcher` bridges the two with **self-clocked** batches and
no timer: a query that finds the batcher idle starts a drain on the next
event-loop tick, so queries submitted in one tick share a batch, and
queries that arrive while a batch runs form the next one (up to
``max_batch``, in order).  One batch runs at a time — the work is
GIL-bound — so batches grow with the load behind them.  Dropping the
former fixed 2 ms window cut perfbench serve-miss's traced
``serve.batch_wait_ms`` from 2.33 to 0.17 ms (2-CPU host, seed 1).
Results are exactly what per-query estimation would produce
(``estimate_many`` guarantees it): batching changes latency, not answers.

Failure isolation is the subtle part: one **poison query** must not
fail its batchmates.  When a batch run raises, the batcher retries each
member *individually*; only the queries that fail on their own see the
exception.  Deadlines compose the same way: a member whose deadline
expired while it queued fails alone before the runner sees it, the
batch runs under the *tightest* remaining member deadline (so nobody's
budget is silently exceeded by a batchmate's work), and a member whose
deadline forced the batch down is re-run solo under its own remaining
budget.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..errors import EstimationTimeout, EstimatorUnavailable
from ..obs import Counters
from ..perf.batch import BatchQuery
from ..runtime import Deadline

__all__ = ["BatchRunner", "MicroBatcher"]

#: Executes a fused batch synchronously (on an executor thread) under an
#: optional deadline budget in seconds; returns one selectivity per query.
BatchRunner = Callable[[Sequence[BatchQuery], "float | None"], "list[float]"]


@dataclass
class _Pending:
    """One submitted query waiting for its batch to run."""

    query: BatchQuery
    deadline: Deadline | None
    future: "asyncio.Future[float]" = field(repr=False, kw_only=True)


class MicroBatcher:
    """Self-clocked coalescer over a synchronous batch runner.

    Parameters
    ----------
    runner:
        ``runner(queries, deadline_s) -> [selectivity, ...]``, executed
        on the batcher's one worker thread.  The server supplies a
        runner that installs a :class:`~repro.runtime.Deadline` scope and
        calls :func:`~repro.perf.estimate_many` with the shared cache.
    max_batch:
        The most queries one fused run takes; a longer queue drains as
        consecutive batches.

    Call :meth:`submit` from the owning event loop only; call
    :meth:`aclose` on shutdown to drain and settle every pending future
    and stop the worker thread.
    """

    def __init__(self, runner: BatchRunner, *, max_batch: int = 16) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._runner = runner
        self.max_batch = int(max_batch)
        # One worker thread, since batches run one at a time: spreading
        # builds over the loop's default pool raised peak RSS (one malloc
        # arena per thread; perfbench serve-miss 107 -> 115 MB median).
        self._executor = ThreadPoolExecutor(1, thread_name_prefix="repro-batch")
        self.stats = Counters(
            "queries",
            "batches",  # fused runs dispatched (each covers >= 1 query)
            "batch_failures",  # fused runs that raised and fell to solo retries
            "solo_retries",  # individual re-runs after a fused failure
            "expired_before_run",  # members rejected with an expired deadline
            # Queries that shared a fused run with at least one other.
            derived={"coalesced": lambda c: c["queries"] - c["batches"]},
        )
        self._pending: list[_Pending] = []
        self._drain: "asyncio.Task[None] | None" = None
        self._closed = False

    # ------------------------------------------------------------------
    async def submit(self, query: BatchQuery, deadline: Deadline | None = None) -> float:
        """Estimate one query in the next batch the batcher runs.

        Awaits the fused (or solo-retried) result; raises whatever the
        query's own execution raised — including
        :class:`~repro.errors.EstimationTimeout` when ``deadline`` has
        expired by the time its batch starts (storm protection: expired
        requests never reach the runner at all).
        """
        if self._closed:
            raise EstimatorUnavailable("MicroBatcher is closed")
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[float]" = loop.create_future()
        self._pending.append(_Pending(query, deadline, future=future))
        self.stats.add("queries")
        if self._drain is None:
            # Scheduled, not run: submits later in this tick join the batch.
            self._drain = loop.create_task(self._drain_pending())
        return await future

    async def aclose(self) -> None:
        """Drain pending queries and wait for the batch in flight."""
        while self._drain is not None:
            await asyncio.wait((self._drain,))
        self._closed = True
        self._executor.shutdown(wait=False)

    # ------------------------------------------------------------------
    async def _drain_pending(self) -> None:
        """Run queued queries as consecutive batches until none are left."""
        try:
            while self._pending:
                batch = self._take_batch()
                if batch:
                    await self._run_batch(batch)
        finally:
            self._drain = None

    def _take_batch(self) -> list[_Pending]:
        """Pop the next batch; a member whose deadline ran out before it
        starts fails alone here, without reaching the runner."""
        batch = []
        for pending in self._pending[: self.max_batch]:
            try:
                if pending.deadline is not None:
                    pending.deadline.check("serve.batch")
            except EstimationTimeout as exc:
                self.stats.add("expired_before_run")
                if not pending.future.done():
                    pending.future.set_exception(exc)
            else:
                batch.append(pending)
        del self._pending[: self.max_batch]
        return batch

    async def _run_batch(self, batch: list[_Pending]) -> None:
        """Execute one fused batch; on failure, retry members solo."""
        self.stats.add("batches")
        loop = asyncio.get_running_loop()
        queries = [p.query for p in batch]
        deadline_s = _tightest_budget(batch)
        try:
            results = await loop.run_in_executor(
                self._executor, self._runner, queries, deadline_s
            )
            # A (pluggable, possibly chaos-injected) runner that returns
            # the wrong cardinality must not leave anyone's future
            # unresolved forever — it is a batch failure like any other.
            _check_cardinality(results, len(batch))
        except asyncio.CancelledError:
            for pending in batch:
                if not pending.future.done():
                    pending.future.cancel()
            raise
        # The solo retry IS the isolation mechanism: any fused failure —
        # poison query, tightest-deadline expiry, transient fault — must
        # be re-attributed to the member(s) that actually cause it.
        except Exception:  # repro-lint: disable=R005  # noqa: BLE001
            self.stats.add("batch_failures")
            await self._retry_solo(batch)
        else:
            for pending, value in zip(batch, results):
                if not pending.future.done():
                    pending.future.set_result(value)

    async def _retry_solo(self, batch: list[_Pending]) -> None:
        """Re-run each member alone so only genuine failures propagate."""
        loop = asyncio.get_running_loop()
        for pending in batch:
            if pending.future.done():
                continue
            self.stats.add("solo_retries")
            budget = _tightest_budget([pending])
            try:
                results = await loop.run_in_executor(
                    self._executor, self._runner, [pending.query], budget
                )
                _check_cardinality(results, 1)
            except asyncio.CancelledError:
                pending.future.cancel()
                raise
            except Exception as exc:  # repro-lint: disable=R005  # noqa: BLE001
                if not pending.future.done():
                    pending.future.set_exception(exc)
            else:
                if not pending.future.done():
                    pending.future.set_result(results[0])

    def __repr__(self) -> str:
        return f"MicroBatcher(max_batch={self.max_batch}, pending={len(self._pending)})"


def _check_cardinality(results: "list[float]", expected: int) -> None:
    if len(results) != expected:
        raise EstimatorUnavailable(
            f"batch runner returned {len(results)} results for {expected} queries"
        )


def _tightest_budget(batch: "list[_Pending]") -> "float | None":
    """The smallest remaining deadline across members (None = unbudgeted).

    Clamped at zero: a member whose budget ran out during a failed
    fused run retries solo with a zero budget, so the runner's first
    checkpoint raises and the timeout is attributed to that member.
    """
    budgets = [p.deadline.remaining for p in batch if p.deadline is not None]
    if not budgets:
        return None
    return max(0.0, min(budgets))
