"""Measurement helpers for the evaluation harness.

Histogram estimation takes microseconds while the reference join takes
seconds, so naive one-shot timing of the cheap side is noise.
:func:`measure_seconds` adaptively repeats a callable until a minimum
total runtime is accumulated and reports the per-call mean.
"""

from __future__ import annotations

import time
from typing import Any, Callable

__all__ = ["measure_seconds", "measure_best"]


def measure_seconds(
    fn: Callable[[], Any],
    *,
    min_repeats: int = 3,
    min_total_seconds: float = 0.05,
    max_repeats: int = 10_000,
) -> float:
    """Mean wall-clock seconds per call of ``fn``.

    Runs at least ``min_repeats`` times and keeps going until the
    accumulated time reaches ``min_total_seconds`` (or ``max_repeats``),
    then returns total / runs.
    """
    runs = 0
    total = 0.0
    while runs < min_repeats or (total < min_total_seconds and runs < max_repeats):
        start = time.perf_counter()
        fn()
        total += time.perf_counter() - start
        runs += 1
    return total / runs


def measure_best(fn: Callable[[], Any], *, repeats: int = 5) -> float:
    """Best-of-``repeats`` wall-clock seconds for one call of ``fn``.

    The minimum over several runs is the standard estimator for
    *comparing* implementations (it discards GC pauses, scheduler noise,
    and first-call warmup that would otherwise blur an A/B speedup);
    :func:`measure_seconds` remains the right tool for absolute
    latencies.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best
