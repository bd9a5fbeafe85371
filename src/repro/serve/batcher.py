"""Micro-batching: coalesce concurrent queries into one ``estimate_many``.

A serving loop receives queries one at a time, but
:func:`repro.perf.estimate_many` is dramatically cheaper per query when
given many at once (cross-query build dedup + cache).  The
:class:`MicroBatcher` bridges the two with **self-clocked** batches and
no timer: the first query of an event-loop tick schedules one hand-off
that passes the tick's queries to the batcher's worker thread in one
queue put, and the worker runs what it holds as consecutive batches (up
to ``max_batch``, in order), merging hand-offs that queued meanwhile.
One batch runs at a time — the work is GIL-bound — so batches grow with
the load behind them, and one callback settles each batch on the loop:
a slow read crosses threads once each way (DESIGN §12 has the numbers).
Results are exactly what per-query estimation would produce.

Failure isolation is the subtle part: one **poison query** must not
fail its batchmates.  When a batch run raises, the batcher retries each
member *individually*; only the queries that fail on their own see the
exception.  Deadlines compose the same way: a member whose deadline
expired while it queued fails alone before the runner sees it, the
batch runs under the *tightest* remaining member deadline, and a
member whose deadline forced the batch down is re-run solo under its
own remaining budget.
"""

from __future__ import annotations

import asyncio
import threading
from collections import deque
from queue import SimpleQueue
from typing import Any, Callable, NamedTuple, Sequence

from ..errors import EstimationTimeout, EstimatorUnavailable
from ..obs import Counters
from ..perf.batch import BatchQuery
from ..runtime import Deadline

__all__ = ["BatchRunner", "MicroBatcher"]

#: Executes a fused batch synchronously (on the worker thread) under an
#: optional deadline budget in seconds; returns one selectivity per query.
BatchRunner = Callable[[Sequence[BatchQuery], "float | None"], "list[float]"]

#: One future and the value or exception it is to be settled with.
_Outcome = tuple["asyncio.Future[Any]", object]


class _Pending(NamedTuple):
    """One submitted query waiting for its batch to run."""

    query: BatchQuery
    deadline: Deadline | None
    future: asyncio.Future[float]


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
        self.stats = Counters(
            "queries",
            "batches",  # fused runs dispatched (each covers >= 1 query)
            "batch_failures",  # fused runs that raised and fell to solo retries
            "solo_retries",  # individual re-runs after a fused failure
            "expired_before_run",  # members rejected with an expired deadline
            # Queries that shared a fused run with at least one other.
            derived={"coalesced": lambda c: c["queries"] - c["batches"]},
        )
        self._pending: list[_Pending] = []  # this tick's submits
        # Hand-offs, then a stop marker, for the one worker: batches run one
        # at a time, and a thread pool raised peak RSS (one malloc arena per
        # thread; serve-miss 107 -> 115 MB).
        self._inbox: SimpleQueue[list[_Pending] | asyncio.Future[None]] = SimpleQueue()
        self._worker: threading.Thread | None = None
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
        if not self._pending:
            # Scheduled, not run: submits later in this tick join the hand-off.
            loop.call_soon(self._hand_off)
        self._pending.append(_Pending(query, deadline, future))
        self.stats.add("queries")
        return await future

    async def aclose(self) -> None:
        """Refuse new queries, settle every submitted one, then stop the
        worker thread; waits on the loop, never blocking it."""
        self._closed = True
        self._hand_off()
        worker, self._worker = self._worker, None
        if worker is not None:
            stopped: "asyncio.Future[None]" = asyncio.get_running_loop().create_future()
            self._inbox.put(stopped)
            await stopped
            worker.join()  # it returns right after resolving ``stopped``

    # ------------------------------------------------------------------
    def _hand_off(self) -> None:
        """Pass this tick's submits to the worker in one queue put."""
        if not self._pending:
            return
        if self._worker is None:
            self._worker = threading.Thread(target=self._work, name="repro-batch", daemon=True)
            self._worker.start()
        self._inbox.put(self._pending)
        self._pending = []

    def _work(self) -> None:
        """Worker thread: run merged hand-offs as batches; block only when idle."""
        backlog: "deque[_Pending]" = deque()
        stop: "asyncio.Future[None] | None" = None
        while True:
            while not backlog or not self._inbox.empty():
                if not backlog and stop is not None:
                    _hand_back([(stop, None)])
                    return
                item = self._inbox.get()
                if isinstance(item, list):
                    backlog.extend(item)
                else:
                    stop = item
            self._run_batch([backlog.popleft() for _ in range(min(self.max_batch, len(backlog)))])

    def _run_batch(self, batch: list[_Pending]) -> None:
        """Run one batch (expired members fail alone before the runner, a
        fused failure re-runs members solo); settle it with one callback."""
        outcomes: "list[_Outcome]" = []
        ready: list[_Pending] = []
        for pending in batch:
            try:
                if pending.deadline is not None:
                    pending.deadline.check("serve.batch")
            except EstimationTimeout as exc:
                self.stats.add("expired_before_run")
                outcomes.append((pending.future, exc))
            else:
                ready.append(pending)
        if ready:
            self.stats.add("batches")
            try:
                outcomes += zip([p.future for p in ready], self._call(ready))
            # The solo retry IS the isolation mechanism: any fused failure —
            # poison query, tightest-deadline expiry, transient fault — must
            # be re-attributed to the member(s) that actually cause it.
            except Exception:  # repro-lint: disable=R005  # noqa: BLE001
                self.stats.add("batch_failures")
                # A racy read of loop state (_settle checks again on the loop).
                for pending in (p for p in ready if not p.future.done()):
                    self.stats.add("solo_retries")
                    try:
                        outcomes.append((pending.future, self._call([pending])[0]))
                    except Exception as exc:  # repro-lint: disable=R005  # noqa: BLE001
                        outcomes.append((pending.future, exc))
        _hand_back(outcomes)

    def _call(self, batch: list[_Pending]) -> "list[float]":
        """The runner's results under the smallest remaining member budget,
        clamped at zero (a member whose budget ran out in a failed fused
        run retries solo with none, so the timeout is attributed to it).
        A (pluggable, possibly chaos-injected) runner returning the wrong
        count fails the call, so no future is left unresolved forever."""
        budgets = [p.deadline.remaining for p in batch if p.deadline is not None]
        budget = max(0.0, min(budgets)) if budgets else None
        results = self._runner([p.query for p in batch], budget)
        if len(results) != len(batch):
            raise EstimatorUnavailable(
                f"batch runner returned {len(results)} results for {len(batch)} queries"
            )
        return results

    def __repr__(self) -> str:
        return f"MicroBatcher(max_batch={self.max_batch}, pending={len(self._pending)})"


def _hand_back(outcomes: "list[_Outcome]") -> None:
    """Settle ``outcomes`` by one callback per owning loop; a closed one's is dropped."""
    by_loop: "dict[asyncio.AbstractEventLoop, list[_Outcome]]" = {}
    for outcome in outcomes:
        by_loop.setdefault(outcome[0].get_loop(), []).append(outcome)
    for loop, settled in by_loop.items():
        try:
            loop.call_soon_threadsafe(_settle, settled)
        except RuntimeError:
            pass  # the loop is closed


def _settle(outcomes: "list[_Outcome]") -> None:
    """Loop side of :func:`_hand_back`: resolve each future not yet done."""
    for future, outcome in outcomes:
        if not future.done():
            failed = isinstance(outcome, BaseException)
            (future.set_exception if failed else future.set_result)(outcome)
