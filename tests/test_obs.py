"""repro.obs.Counters: exact counts under threads, a monotone high-water
mark, derived values computed on read."""

import sys
import threading

import pytest

from repro.obs import Counters

THREADS = 8
INCREMENTS = 10_000


def _run(threads: "list[threading.Thread]") -> None:
    """Start and join ``threads`` with a short switch interval, so the
    interpreter hands the lock between them as often as it can."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


def test_concurrent_increments_sum_exactly():
    counters = Counters("hits", "misses")
    start = threading.Barrier(THREADS)

    def worker() -> None:
        start.wait()
        for _ in range(INCREMENTS):
            counters.add("hits")
            counters.add("hits", "misses")

    _run([threading.Thread(target=worker) for _ in range(THREADS)])
    assert counters.snapshot() == {
        "hits": 2 * THREADS * INCREMENTS,
        "misses": THREADS * INCREMENTS,
    }


def test_high_water_mark_is_monotone():
    counters = Counters("high_water")
    start = threading.Barrier(THREADS + 1)
    seen: list[float] = []

    def raiser(seed: int) -> None:
        start.wait()
        for i in range(INCREMENTS):
            counters.raise_to("high_water", (i * 7919 + seed * 104729) % 50_000)

    def reader() -> None:
        start.wait()
        for _ in range(INCREMENTS):
            seen.append(counters.high_water)

    threads = [threading.Thread(target=raiser, args=(s,)) for s in range(THREADS)]
    threads.append(threading.Thread(target=reader))
    _run(threads)
    assert seen == sorted(seen)
    expected = max(
        (i * 7919 + s * 104729) % 50_000 for s in range(THREADS) for i in range(INCREMENTS)
    )
    assert counters.high_water == expected
    counters.raise_to("high_water", 0)  # a lower level never lowers the mark
    assert counters.high_water == expected


def test_derived_values_and_access():
    counters = Counters(
        "queries", "batches", derived={"coalesced": lambda c: c["queries"] - c["batches"]}
    )
    counters.add("queries", "queries", "queries")
    counters.add("batches")
    assert counters.snapshot() == {"queries": 3, "batches": 1, "coalesced": 2}
    assert counters.coalesced == counters["coalesced"] == 2
    assert counters.queries == 3


def test_unknown_names_are_errors():
    counters = Counters("cached-coarse")
    counters.add("cached-coarse")
    assert counters["cached-coarse"] == 1
    with pytest.raises(KeyError):
        counters.add("typo")
    with pytest.raises(AttributeError, match="no counter 'typo'"):
        counters.typo
