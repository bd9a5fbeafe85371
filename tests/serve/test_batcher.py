"""Micro-batcher: self-clocking, ordering, poison isolation, deadlines.

No ``pytest-asyncio`` in the environment, so each test drives its own
event loop with ``asyncio.run``.
"""

import asyncio
import statistics
import threading
import time

import pytest

from repro.errors import EstimationTimeout, EstimatorUnavailable
from repro.perf.batch import BatchQuery
from repro.runtime import Deadline
from repro.serve import MicroBatcher
from tests.serve.conftest import run_bounded


def _query(catalog, a="roads", b="rivers", level=5):
    return BatchQuery(catalog[a], catalog[b], "gh", level)


class RecordingRunner:
    """A synchronous runner that logs every batch it executes."""

    def __init__(self, fail_levels=()):
        self.batches = []
        self.fail_levels = set(fail_levels)

    def __call__(self, queries, deadline_s):
        self.batches.append((tuple(q.level for q in queries), deadline_s))
        for q in queries:
            if q.level in self.fail_levels:
                raise ValueError(f"poison level {q.level}")
        return [float(q.level) for q in queries]


class BlockingRunner(RecordingRunner):
    """A recording runner whose calls block until :attr:`release` is set.

    Tracks how many calls run at once, so a test can assert that the
    batcher never has two batches in flight.
    """

    def __init__(self):
        super().__init__()
        self.started = threading.Event()
        self.release = threading.Event()
        self.active = 0
        self.max_active = 0
        self._lock = threading.Lock()

    def __call__(self, queries, deadline_s):
        with self._lock:
            self.active += 1
            self.max_active = max(self.max_active, self.active)
        try:
            self.started.set()
            if not self.release.wait(timeout=30.0):
                raise TimeoutError("runner was never released")
            return super().__call__(queries, deadline_s)
        finally:
            with self._lock:
                self.active -= 1


async def until(event):
    """Yield to the loop until a ``threading.Event`` is set."""
    while not event.is_set():
        await asyncio.sleep(0.001)


class TestCoalescing:
    def test_concurrent_submissions_share_one_batch(self, catalog):
        runner = RecordingRunner()
        batcher = MicroBatcher(runner, max_batch=16)

        async def go():
            results = await asyncio.gather(
                *[batcher.submit(_query(catalog, level=i)) for i in range(5)]
            )
            await batcher.aclose()
            return results

        results = asyncio.run(go())
        assert results == [0.0, 1.0, 2.0, 3.0, 4.0]  # order preserved
        assert len(runner.batches) == 1
        assert batcher.stats.coalesced == 4

    def test_size_cap_splits_a_burst_in_submission_order(self, catalog):
        runner = RecordingRunner()
        batcher = MicroBatcher(runner, max_batch=16)

        async def go():
            results = await asyncio.gather(
                *[batcher.submit(_query(catalog, level=i)) for i in range(40)]
            )
            await batcher.aclose()
            return results

        assert run_bounded(go()) == [float(i) for i in range(40)]
        assert [levels for levels, _ in runner.batches] == [
            tuple(range(0, 16)), tuple(range(16, 32)), tuple(range(32, 40))
        ]
        assert batcher.stats.batches == 3

    def test_sequential_submissions_each_complete(self, catalog):
        runner = RecordingRunner()
        batcher = MicroBatcher(runner, max_batch=4)

        async def go():
            first = await batcher.submit(_query(catalog, level=1))
            second = await batcher.submit(_query(catalog, level=2))
            await batcher.aclose()
            return first, second

        assert asyncio.run(go()) == (1.0, 2.0)
        assert batcher.stats.queries == 2


class TestSelfClocking:
    """No timer: a query waits only for the batch ahead of it."""

    def test_lone_submit_waits_for_no_window(self, catalog):
        # A fixed batching window would bound every lone submit from
        # below by its length; self-clocking costs one tick and one
        # executor hop.
        batcher = MicroBatcher(RecordingRunner())
        query = _query(catalog)

        async def go():
            elapsed = []
            for _ in range(200):
                started = time.perf_counter()
                await batcher.submit(query)
                elapsed.append(time.perf_counter() - started)
            await batcher.aclose()
            return elapsed

        assert statistics.median(run_bounded(go())) < 1e-3

    def test_queries_behind_a_running_batch_form_the_next_batch(self, catalog):
        runner = BlockingRunner()
        batcher = MicroBatcher(runner, max_batch=16)

        async def go():
            first = asyncio.ensure_future(batcher.submit(_query(catalog, level=0)))
            await until(runner.started)
            queued = []
            for level in (1, 2, 3):  # one per tick, all while the runner blocks
                queued.append(asyncio.ensure_future(batcher.submit(_query(catalog, level=level))))
                await asyncio.sleep(0)
            await asyncio.sleep(0.01)
            runner.release.set()
            results = await asyncio.gather(first, *queued)
            await batcher.aclose()
            return results

        assert run_bounded(go()) == [0.0, 1.0, 2.0, 3.0]
        assert [levels for levels, _ in runner.batches] == [(0,), (1, 2, 3)]
        assert runner.max_active == 1  # never two batches in flight


class TestPoisonIsolation:
    def test_poison_query_fails_only_itself(self, catalog):
        runner = RecordingRunner(fail_levels={3})
        batcher = MicroBatcher(runner, max_batch=16)

        async def go():
            results = await asyncio.gather(
                *[batcher.submit(_query(catalog, level=i)) for i in (1, 2, 3, 4)],
                return_exceptions=True,
            )
            await batcher.aclose()
            return results

        results = asyncio.run(go())
        assert results[0] == 1.0 and results[1] == 2.0 and results[3] == 4.0
        assert isinstance(results[2], ValueError)
        assert batcher.stats.batch_failures == 1
        assert batcher.stats.solo_retries == 4  # every member re-ran alone

    def test_short_result_list_never_hangs_the_batch(self, catalog):
        # Regression: a runner returning fewer results than queries left
        # the unpaired members' futures unresolved forever.  A count
        # mismatch must instead fall to the solo-retry path, where every
        # member settles one way or the other.
        def short_runner(queries, deadline_s):
            if len(queries) > 1:
                return [float(q.level) for q in queries[:-1]]  # one short
            return [float(q.level) for q in queries]

        batcher = MicroBatcher(short_runner, max_batch=16)

        async def go():
            results = await asyncio.gather(
                *[batcher.submit(_query(catalog, level=i)) for i in (1, 2, 3)]
            )
            await batcher.aclose()
            return results

        assert asyncio.run(go()) == [1.0, 2.0, 3.0]
        assert batcher.stats.batch_failures == 1
        assert batcher.stats.solo_retries == 3

    def test_wrong_solo_cardinality_raises_instead_of_hanging(self, catalog):
        def empty_runner(queries, deadline_s):
            return []

        batcher = MicroBatcher(empty_runner, max_batch=16)

        async def go():
            with pytest.raises(EstimatorUnavailable, match="0 results"):
                await batcher.submit(_query(catalog))
            await batcher.aclose()

        asyncio.run(go())

    def test_clean_batch_has_no_retries(self, catalog):
        runner = RecordingRunner()
        batcher = MicroBatcher(runner, max_batch=16)

        async def go():
            await asyncio.gather(
                *[batcher.submit(_query(catalog, level=i)) for i in (1, 2)]
            )
            await batcher.aclose()

        asyncio.run(go())
        assert batcher.stats.batch_failures == 0
        assert batcher.stats.solo_retries == 0


class TestDeadlines:
    def test_expired_deadline_fast_fails_before_the_runner(self, catalog):
        runner = RecordingRunner()
        batcher = MicroBatcher(runner, max_batch=16)

        async def go():
            with pytest.raises(EstimationTimeout):
                await batcher.submit(_query(catalog), Deadline(0.0))
            await batcher.aclose()

        asyncio.run(go())
        assert runner.batches == []  # never reached the runner
        assert batcher.stats.expired_before_run == 1

    def test_batch_runs_under_tightest_member_budget(self, catalog):
        runner = RecordingRunner()
        batcher = MicroBatcher(runner, max_batch=16)

        async def go():
            await asyncio.gather(
                batcher.submit(_query(catalog, level=1), Deadline(30.0)),
                batcher.submit(_query(catalog, level=2), Deadline(5.0)),
                batcher.submit(_query(catalog, level=3)),  # unbudgeted
            )
            await batcher.aclose()

        asyncio.run(go())
        (_, deadline_s), = runner.batches
        assert deadline_s is not None and deadline_s <= 5.0

    def test_member_expiring_while_queued_fails_alone(self, catalog):
        runner = BlockingRunner()
        batcher = MicroBatcher(runner)

        async def go():
            first = asyncio.ensure_future(batcher.submit(_query(catalog, level=0)))
            await until(runner.started)
            doomed = asyncio.ensure_future(
                batcher.submit(_query(catalog, level=1), Deadline(0.02))
            )
            mate = asyncio.ensure_future(
                batcher.submit(_query(catalog, level=2), Deadline(30.0))
            )
            await asyncio.sleep(0.05)  # the doomed budget runs out in the queue
            runner.release.set()
            outcomes = await asyncio.gather(first, doomed, mate, return_exceptions=True)
            await batcher.aclose()
            return outcomes

        first, doomed, mate = run_bounded(go())
        assert isinstance(doomed, EstimationTimeout)
        assert first == 0.0 and mate == 2.0
        assert [levels for levels, _ in runner.batches] == [(0,), (2,)]
        assert batcher.stats.expired_before_run == 1
        assert batcher.stats.batch_failures == 0

    def test_unbudgeted_batch_passes_none(self, catalog):
        runner = RecordingRunner()
        batcher = MicroBatcher(runner, max_batch=16)

        async def go():
            await batcher.submit(_query(catalog))
            await batcher.aclose()

        asyncio.run(go())
        assert runner.batches[0][1] is None


class TestLifecycle:
    def test_closed_batcher_rejects_submissions(self, catalog):
        runner = RecordingRunner()
        batcher = MicroBatcher(runner)

        async def go():
            await batcher.aclose()
            with pytest.raises(EstimatorUnavailable):
                await batcher.submit(_query(catalog))

        asyncio.run(go())

    def test_aclose_settles_queries_queued_behind_a_running_batch(self, catalog):
        runner = BlockingRunner()
        batcher = MicroBatcher(runner)

        async def go():
            first = asyncio.ensure_future(batcher.submit(_query(catalog, level=0)))
            await until(runner.started)
            queued = [
                asyncio.ensure_future(batcher.submit(_query(catalog, level=i)))
                for i in (1, 2)
            ]
            await asyncio.sleep(0)
            closing = asyncio.ensure_future(batcher.aclose())
            await asyncio.sleep(0.01)
            assert not closing.done()  # the batch in flight still runs
            runner.release.set()
            await closing
            return [task.done() for task in (first, *queued)], queued

        settled, queued = run_bounded(go())
        assert all(settled)
        assert [task.result() for task in queued] == [1.0, 2.0]
        assert [levels for levels, _ in runner.batches] == [(0,), (1, 2)]

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            MicroBatcher(RecordingRunner(), max_batch=0)
