"""Batched estimation: one pass of builds, fused combines, a tier-0 memo.

A query-optimizer workload asks for many selectivities at once — every
candidate join order touches the same handful of datasets.  Estimating
each query independently rebuilds the same histogram files over and
over; :func:`estimate_many` instead

1. fingerprints every *distinct* dataset object once, consults the
   optional tier-0 :class:`~repro.perf.memo.EstimateCache` (a memo hit
   answers the query with zero builds and zero combines), and resolves
   the rest to histogram *build tasks* keyed by (dataset fingerprint,
   scheme, level, extent) so duplicate builds collapse across the whole
   workload;
2. executes the distinct builds — through a
   :class:`~repro.perf.cache.HistogramCache` when one is supplied (so a
   warm cache skips building entirely), on a shared process-wide thread
   pool otherwise eligible;
3. combines per query: GH queries on a shared grid go through the fused
   Equation 5 kernel (:func:`~repro.histograms.fused.fused_pair_estimates`
   — one broadcasted pass for the whole group, bit-identical to the
   per-pair combine), other schemes combine pair-at-a-time; fresh
   results are then published to the memo.

**Runtime-scope fallback.**  Deadlines and fault hooks live in
context-local state that does not propagate into worker threads
(:func:`~repro.runtime.active_scope`); running builds on a pool would
silently disable an active deadline or fault plan.  When any runtime
scope is active the engine therefore degrades to serial, in-context
execution — same results, checkpoint semantics preserved — and the
memo refuses both lookups and inserts while a fault hook is active.

**Build pool.**  Builds release the GIL inside numpy kernels, so they
overlap on threads; the pool is created once per process (first
eligible call), shared by every ``estimate_many`` call, and shut down
``atexit``.  Passing an explicit ``max_workers`` still gets a dedicated
pool sized to the request (benchmarks sweep worker counts this way).

Results are exactly what per-query estimation would produce: the same
builders, the same combine formulas (bit-identical through the fused
kernel and the memo), the same empty-side and extent-mismatch semantics
as :class:`~repro.core.estimator.PreparedEstimator`.
"""

from __future__ import annotations

import atexit
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..datasets import SpatialDataset
from ..geometry import Rect
from ..histograms.file import HISTOGRAM_SCHEMES, Histogram
from ..histograms.fused import fused_pair_estimates, stack_gh
from ..runtime import active_scope
from .cache import CacheKey, HistogramCache
from .fingerprint import dataset_fingerprint
from .memo import EstimateCache, EstimateKey, scheme_formula

__all__ = ["BatchQuery", "estimate_many"]

#: Builds release the GIL inside numpy kernels but keep Python overhead,
#: so a small pool captures most of the available overlap.
_DEFAULT_WORKERS = min(8, os.cpu_count() or 1)

_pool_lock = threading.Lock()
_shared_pool: "ThreadPoolExecutor | None" = None


def _shared_build_pool() -> ThreadPoolExecutor:
    """The process-wide build pool (created once, shut down atexit)."""
    global _shared_pool
    with _pool_lock:
        if _shared_pool is None:
            _shared_pool = ThreadPoolExecutor(
                max_workers=_DEFAULT_WORKERS, thread_name_prefix="repro-build"
            )
            atexit.register(_shutdown_shared_pool)
        return _shared_pool


def _shutdown_shared_pool() -> None:
    """Tear down the shared pool (atexit, and tests that need a reset)."""
    global _shared_pool
    with _pool_lock:
        pool, _shared_pool = _shared_pool, None
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


@dataclass(frozen=True, slots=True)
class BatchQuery:
    """One selectivity request in a batched workload."""

    ds1: SpatialDataset
    ds2: SpatialDataset
    scheme: str = "gh"
    level: int = 7
    extent: Rect | None = None  #: defaults to the pair's shared extent

    def resolved_extent(self) -> Rect:
        """The grid universe for this query (validated like estimators)."""
        if self.extent is not None:
            return self.extent
        if self.ds1.extent != self.ds2.extent:
            raise ValueError(
                f"datasets {self.ds1.name!r} and {self.ds2.name!r} must share "
                "a common extent (or the query must carry one)"
            )
        return self.ds1.extent


def _as_query(item: BatchQuery | Sequence) -> BatchQuery:
    if isinstance(item, BatchQuery):
        return item
    return BatchQuery(*item)


def estimate_many(
    queries: Iterable[BatchQuery | Sequence],
    *,
    cache: HistogramCache | None = None,
    memo: EstimateCache | None = None,
    max_workers: int | None = None,
) -> list[float]:
    """Selectivity per query, deduplicating histogram builds workload-wide.

    ``queries`` accepts :class:`BatchQuery` objects or plain tuples
    ``(ds1, ds2[, scheme[, level]])``.  Returns one selectivity per
    query, in order, identical to estimating each query on its own.
    ``memo`` (a tier-0 :class:`EstimateCache`) answers warm repeats
    before any build is planned and retains fresh results afterwards.
    """
    batch = [_as_query(q) for q in queries]
    if not batch:
        return []

    # Phase 1 — fingerprint each distinct dataset *object* once for the
    # whole batch, answer memo hits, and resolve the rest to build
    # tasks deduped by content-addressed key.  Empty-side queries
    # answer 0.0 and build nothing (the shared PreparedEstimator
    # semantics).
    fingerprints: dict[int, str] = {}

    def fingerprint_of(dataset: SpatialDataset) -> str:
        found = fingerprints.get(id(dataset))
        if found is None:
            found = dataset_fingerprint(dataset)
            fingerprints[id(dataset)] = found
        return found

    tasks: dict[CacheKey, tuple[SpatialDataset, str, int, Rect]] = {}
    plans: list[tuple[CacheKey, CacheKey] | None] = []
    memo_hits: dict[int, float] = {}
    memo_keys: list[EstimateKey | None] = []
    for position, query in enumerate(batch):
        if query.scheme not in HISTOGRAM_SCHEMES:
            raise ValueError(
                f"unknown scheme {query.scheme!r}; choose from {sorted(HISTOGRAM_SCHEMES)}"
            )
        if len(query.ds1) == 0 or len(query.ds2) == 0:
            plans.append(None)
            memo_keys.append(None)
            continue
        extent = query.resolved_extent()
        datasets = (query.ds1, query.ds2)
        sides: list[CacheKey] = []
        for dataset in datasets:
            key = CacheKey(
                fingerprint=fingerprint_of(dataset),
                scheme=query.scheme,
                level=int(query.level),
                extent=extent.as_tuple(),
            )
            sides.append(key)
        estimate_key: EstimateKey | None = None
        if memo is not None:
            estimate_key = EstimateKey(
                fingerprint1=sides[0].fingerprint,
                fingerprint2=sides[1].fingerprint,
                formula=scheme_formula(query.scheme, query.level),
                extent=extent.as_tuple(),
            )
            cached = memo.get(estimate_key)
            if cached is not None:
                memo_hits[position] = cached
                plans.append(None)
                memo_keys.append(None)
                continue
        for key, dataset in zip(sides, datasets):
            tasks.setdefault(key, (dataset, query.scheme, int(query.level), extent))
        plans.append((sides[0], sides[1]))
        memo_keys.append(estimate_key)

    # Phase 2 — run the distinct builds: serial when a runtime scope
    # (deadline / fault hook) demands in-context execution, on a
    # dedicated pool when the caller sized one explicitly, on the
    # shared process pool otherwise.
    def run(task: tuple[SpatialDataset, str, int, Rect]) -> Histogram:
        dataset, scheme, level, extent = task
        if cache is not None:
            return cache.get_or_build(dataset, scheme, level, extent=extent)
        return HISTOGRAM_SCHEMES[scheme].build(dataset, level, extent=extent)

    keys = list(tasks)
    if active_scope() is not None or len(keys) <= 1:
        built = {key: run(tasks[key]) for key in keys}
    elif max_workers:
        workers = min(max_workers, len(keys))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            built = dict(zip(keys, pool.map(lambda k: run(tasks[k]), keys)))
    else:
        pool = _shared_build_pool()
        built = dict(zip(keys, pool.map(lambda k: run(tasks[k]), keys)))

    # Phase 3 — combines.  GH queries sharing a grid go through the
    # fused Equation 5 kernel in one broadcasted pass (bit-identical to
    # per-pair combines); everything else combines pair-at-a-time.
    results: list[float] = [0.0] * len(batch)
    gh_groups: dict[tuple[int, tuple], list[int]] = {}
    for position, (query, plan) in enumerate(zip(batch, plans)):
        if position in memo_hits:
            results[position] = memo_hits[position]
        elif plan is None:
            results[position] = 0.0
        elif query.scheme == "gh":
            group = (int(query.level), plan[0].extent)
            gh_groups.setdefault(group, []).append(position)
        else:
            results[position] = built[plan[0]].estimate_selectivity(built[plan[1]])

    for indices in gh_groups.values():
        if len(indices) == 1:
            only = plans[indices[0]]
            results[indices[0]] = built[only[0]].estimate_selectivity(built[only[1]])
            continue
        # One stack per shared grid; fancy-indexed rows keep each pair's
        # operand order, so the fused results match scalar combines.
        order: dict[CacheKey, int] = {}
        for position in indices:
            for key in plans[position]:
                order.setdefault(key, len(order))
        stack = stack_gh([built[key] for key in order])
        idx1 = np.array([order[plans[i][0]] for i in indices], dtype=np.intp)
        idx2 = np.array([order[plans[i][1]] for i in indices], dtype=np.intp)
        fused = fused_pair_estimates(stack, idx1, idx2)
        for offset, position in enumerate(indices):
            results[position] = float(fused[offset])

    if memo is not None:
        for position, estimate_key in enumerate(memo_keys):
            if estimate_key is not None:
                memo.put(estimate_key, results[position])
    return results
