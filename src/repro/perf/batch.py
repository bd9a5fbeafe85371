"""Batched estimation: one pass of builds, per-pair combines, a tier-0 memo.

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
2. executes each distinct build once, in the calling context (so an
   active deadline or fault hook applies to it) — through a
   :class:`~repro.perf.cache.HistogramCache` when one is supplied (so a
   warm cache skips building entirely);
3. combines each query through its histogram's own
   ``estimate_selectivity`` (the Equation 5 combine for GH); fresh
   results are then published to the memo, which refuses both lookups
   and inserts while a fault hook is active.

The same-grid GH stack-and-fuse kernel
(:func:`~repro.histograms.fused.fused_pair_estimates`) is not used
here: copying the operands into a stack costs more than the combines
it saves (on a 2-CPU x86_64 host, numpy 2.4.6, the per-pair combine
won at levels 7 and 9 for 2 to 50 pairs).  The all-pairs matrix
(:mod:`repro.core.matrix`) keeps its fused GEMM kernel.

Results are exactly what per-query estimation would produce: the same
builders, the same combine formulas, the same empty-side and
extent-mismatch semantics as
:class:`~repro.core.estimator.PreparedEstimator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from ..datasets import SpatialDataset
from ..geometry import Rect
from ..histograms.file import HISTOGRAM_SCHEMES, Histogram
# Looked up by name here by perfbench's span tracer; no call remains.
from ..histograms.fused import fused_pair_estimates  # noqa: F401
from .cache import CacheKey, HistogramCache
from .fingerprint import dataset_fingerprint
from .memo import EstimateCache, EstimateKey, scheme_formula

__all__ = ["BatchQuery", "estimate_many"]


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
    results: list[float] = [0.0] * len(batch)
    memo_keys: list[EstimateKey | None] = []
    for position, query in enumerate(batch):
        if query.scheme not in HISTOGRAM_SCHEMES:
            raise ValueError(
                f"unknown scheme {query.scheme!r}; choose from {sorted(HISTOGRAM_SCHEMES)}"
            )
        extent = query.resolved_extent()
        if len(query.ds1) == 0 or len(query.ds2) == 0:
            plans.append(None)
            memo_keys.append(None)
            continue
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
                results[position] = cached
                plans.append(None)
                memo_keys.append(None)
                continue
        for key, dataset in zip(sides, datasets):
            tasks.setdefault(key, (dataset, query.scheme, int(query.level), extent))
        plans.append((sides[0], sides[1]))
        memo_keys.append(estimate_key)

    # Phase 2 — run each distinct build once, in the calling context.
    def run(task: tuple[SpatialDataset, str, int, Rect]) -> Histogram:
        dataset, scheme, level, extent = task
        if cache is not None:
            return cache.get_or_build(dataset, scheme, level, extent=extent)
        return HISTOGRAM_SCHEMES[scheme].build(dataset, level, extent=extent)

    built = {key: run(task) for key, task in tasks.items()}

    # Phase 3 — combines, pair at a time through each histogram's own
    # formula (the same call per-query estimation makes).
    for position, plan in enumerate(plans):
        if plan is not None:
            results[position] = built[plan[0]].estimate_selectivity(built[plan[1]])

    if memo is not None:
        for position, estimate_key in enumerate(memo_keys):
            if estimate_key is not None:
                memo.put(estimate_key, results[position])
    return results
