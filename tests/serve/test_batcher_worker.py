"""Micro-batcher worker thread: one hand-back per batch, a clean shutdown.

The batcher owns one ``repro-batch`` thread: each batch is settled on
the loop by a single ``call_soon_threadsafe`` callback, ``aclose``
settles every future and leaves no thread behind, and a loop that
closes with a batch in flight costs the worker nothing.  A stress test
interleaves many submitting tasks with a worker that switches often.
"""

import asyncio
import random
import sys
import threading

import pytest

from repro.perf.batch import BatchQuery
from repro.serve import MicroBatcher
from tests.serve.conftest import run_bounded
from tests.serve.test_batcher import BlockingRunner, RecordingRunner, until


def _query(catalog, level):
    return BatchQuery(catalog["roads"], catalog["rivers"], "gh", level)


class ThreadRecordingRunner(RecordingRunner):
    """A recording runner that also notes the thread each batch ran on."""

    def __init__(self, fail_levels=()):
        super().__init__(fail_levels)
        self.threads = set()

    def __call__(self, queries, deadline_s):
        self.threads.add(threading.current_thread())
        return super().__call__(queries, deadline_s)


class CountingLoop(asyncio.SelectorEventLoop):
    """An event loop that counts the callbacks other threads schedule."""

    def __init__(self):
        super().__init__()
        self.threadsafe_calls = 0

    def call_soon_threadsafe(self, callback, *args, **kwargs):
        self.threadsafe_calls += 1
        return super().call_soon_threadsafe(callback, *args, **kwargs)


def test_batches_run_on_one_worker_that_aclose_stops(catalog):
    runner = ThreadRecordingRunner()
    batcher = MicroBatcher(runner, max_batch=4)

    async def go():
        return await asyncio.gather(*[batcher.submit(_query(catalog, i)) for i in range(10)])

    async def close():
        await batcher.aclose()

    assert run_bounded(go()) == [float(i) for i in range(10)]
    (worker,) = runner.threads
    assert worker.name == "repro-batch"
    assert worker is not threading.main_thread()
    assert worker.is_alive()  # idle between loops, not stopped
    run_bounded(close())
    assert not worker.is_alive()
    assert worker not in threading.enumerate()


@pytest.mark.parametrize("fail_levels", [(), (2,)])
def test_each_batch_is_settled_by_one_callback(catalog, fail_levels):
    """Three batches (one with a poison member and its solo retries)
    reach the loop as three callbacks, not one per member."""
    runner = RecordingRunner(fail_levels)
    batcher = MicroBatcher(runner, max_batch=16)
    loop = CountingLoop()

    async def go():
        outcomes = await asyncio.gather(
            *[batcher.submit(_query(catalog, i)) for i in range(40)],
            return_exceptions=True,
        )
        calls = loop.threadsafe_calls
        await batcher.aclose()
        return outcomes, calls

    try:
        outcomes, calls = loop.run_until_complete(asyncio.wait_for(go(), 60.0))
    finally:
        loop.close()
    for level, outcome in enumerate(outcomes):
        if level in fail_levels:
            assert isinstance(outcome, ValueError)
        else:
            assert outcome == float(level)
    assert batcher.stats.batches == 3
    assert calls == 3


def test_aclose_with_a_batch_in_flight_settles_every_future(catalog):
    """The runner is released from another thread while ``aclose`` waits,
    so ``aclose`` can only return once the batch has been settled."""
    runner = BlockingRunner()
    batcher = MicroBatcher(runner, max_batch=16)

    async def go():
        tasks = [asyncio.ensure_future(batcher.submit(_query(catalog, i))) for i in range(3)]
        await until(runner.started)
        release = threading.Timer(0.05, runner.release.set)
        release.start()
        await batcher.aclose()
        release.join()
        return [task.done() for task in tasks], tasks

    done, tasks = run_bounded(go())
    assert all(done)
    assert [task.result() for task in tasks] == [0.0, 1.0, 2.0]
    assert [levels for levels, _ in runner.batches] == [(0, 1, 2)]


def test_loop_closed_mid_batch_costs_the_worker_nothing(catalog, monkeypatch):
    """A loop that closes with a batch in flight has nobody to settle;
    the worker drops that hand-back without raising and serves the next
    loop."""
    errors = []
    monkeypatch.setattr(threading, "excepthook", errors.append)
    runner = BlockingRunner()
    batcher = MicroBatcher(runner, max_batch=16)

    async def abandon():
        asyncio.ensure_future(batcher.submit(_query(catalog, 1)))
        await until(runner.started)

    asyncio.run(abandon())  # closes the loop while the runner blocks
    runner.release.set()

    async def reuse():
        value = await asyncio.wait_for(batcher.submit(_query(catalog, 2)), 5.0)
        await batcher.aclose()
        return value

    assert run_bounded(reuse()) == 2.0
    assert errors == []
    assert [levels for levels, _ in runner.batches] == [(1,), (2,)]


def test_interleaved_submits_under_a_short_switch_interval(catalog):
    """Many tasks submitting across ticks while the worker thread switches
    often: every query is answered once, in order per task, in batches of
    at most ``max_batch`` with never two in flight."""
    runner = BlockingRunner()
    runner.release.set()
    batcher = MicroBatcher(runner, max_batch=8)
    rng = random.Random(7)
    delays = [[rng.random() < 0.5 for _ in range(25)] for _ in range(40)]

    async def client(levels, pauses):
        out = []
        for level, pause in zip(levels, pauses):
            out.append(await batcher.submit(_query(catalog, level)))
            if pause:
                await asyncio.sleep(0)
        return out

    async def go():
        results = await asyncio.gather(
            *[client(range(i, i + 25), pauses) for i, pauses in enumerate(delays)]
        )
        await batcher.aclose()
        return results

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = run_bounded(go())
    finally:
        sys.setswitchinterval(interval)
    assert results == [[float(level) for level in range(i, i + 25)] for i in range(40)]
    sizes = [len(levels) for levels, _ in runner.batches]
    assert sum(sizes) == batcher.stats.queries == 40 * 25
    assert max(sizes) <= 8 and runner.max_active == 1
