"""Metric definitions and the summary statistics behind them.

``END_TO_END`` and ``PER_LAYER`` are the single source of the names,
units, directions and bounds; ``BENCHMARK.json`` at the repository root
must list exactly these (``selftest.py`` checks it).  ``REPORTED``
metrics are printed and recorded but not listed there.  Which layer each
per-layer metric measures, and which end-to-end metric it should move,
is mapped in ``README.md``.  This module imports nothing from the
program, so ``compare.py`` runs without it.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  #: "lower" or "higher"
    bound: "float | None" = None  #: allowed relative worsening, where one is fixed


#: What a user of the system sees, on every workload; the benchmark's
#: regression gate.
END_TO_END: tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("ops_per_s", "1/s", "higher", 0.25),
    Metric("ok_frac", "ratio", "higher", 0.01),
    Metric("full_frac", "ratio", "higher", 0.01),
    Metric("rel_err_p50_pct", "%", "lower", 0.1),
    Metric("rel_err_p95_pct", "%", "lower", 0.1),
    Metric("rss_peak_mb", "MB", "lower", 0.25),
    Metric("stats_mb", "MB", "lower", 0.2),
)

#: End-to-end metrics that are printed, recorded by ``--out`` and
#: compared by ``compare.py``, but are not in the gate.  Read latency
#: percentiles move with the CPU speed of a shared 2-CPU machine, which
#: swings by up to 1.7x for seconds at a time: over ten seeds the spread
#: of plan's p50 reached 25% of the median and of its p99 44%, at or
#: above the largest bound a gated metric may have (see README).  The
#: last three exist on one workload only (plan, ingest, ingest), and the
#: gate's metrics must be reported, never as 0, by every workload.
REPORTED: tuple[Metric, ...] = (
    Metric("op_p50_ms", "ms", "lower", 0.25),
    Metric("op_p99_ms", "ms", "lower", 0.25),
    Metric("plan_regret_pct", "%", "lower"),
    Metric("write_p50_ms", "ms", "lower"),
    Metric("write_p95_ms", "ms", "lower"),
)

PER_LAYER: tuple[Metric, ...] = (
    Metric("serve.submit_self_us", "us", "lower"),
    Metric("serve.fast_frac", "ratio", "higher"),
    Metric("serve.batch_wait_ms", "ms", "lower"),
    Metric("serve.batch_size", "count", "higher"),
    Metric("serve.shed", "count", "lower"),
    Metric("serve.degraded", "count", "lower"),
    Metric("memo.hit_frac", "ratio", "higher"),
    Metric("memo.get_us", "us", "lower"),
    Metric("memo.entries", "count", "lower"),
    Metric("fingerprint.folds", "count", "lower"),
    Metric("fingerprint.fold_ms", "ms", "lower"),
    Metric("cache.hit_frac", "ratio", "higher"),
    Metric("cache.builds", "count", "lower"),
    Metric("cache.derivations", "count", "higher"),
    Metric("cache.evictions", "count", "lower"),
    Metric("cache.resolve_ms.l1", "ms", "lower"),
    Metric("cache.resolve_ms.derived", "ms", "lower"),
    Metric("cache.resolve_ms.store", "ms", "lower"),
    Metric("cache.resolve_ms.build", "ms", "lower"),
    Metric("cache.resident_mb", "MB", "lower"),
    Metric("batch.call_ms", "ms", "lower"),
    Metric("batch.builds_per_query", "ratio", "lower"),
    Metric("hist.build_ms.gh", "ms", "lower"),
    Metric("hist.build_ms.ph", "ms", "lower"),
    Metric("hist.combine_us", "us", "lower"),
    Metric("hist.fused_pairs_us", "us", "lower"),
    Metric("hist.fused_matrix_us", "us", "lower"),
    Metric("hist.apply_updates_ms", "ms", "lower"),
    Metric("store.load_ms", "ms", "lower"),
    Metric("store.publish_ms", "ms", "lower"),
    Metric("store.invalidate_ms", "ms", "lower"),
    Metric("store.hit_frac", "ratio", "higher"),
    Metric("store.write_amp", "ratio", "lower"),
    Metric("core.prepare_ms", "ms", "lower"),
    Metric("core.matrix_self_ms", "ms", "lower"),
    Metric("core.optimizer_ms", "ms", "lower"),
    Metric("trace.overhead_pct", "%", "lower"),
)

ALL: dict[str, Metric] = {m.name: m for m in (*END_TO_END, *REPORTED, *PER_LAYER)}


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0.0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the ``q``-th percentile."""
    return count - math.ceil(count * q / 100.0)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) the way ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
