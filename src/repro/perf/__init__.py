"""Serving-performance subsystem: cache, memo, batched estimation.

The paper's deployment story — build histogram *files* offline, consult
them at planning time — implies that serving throughput is governed by
how rarely you rebuild.  This package supplies that amortization layer:

* :mod:`~repro.perf.fingerprint` — content fingerprints so cache
  identity follows the data, not the dataset name;
* :mod:`~repro.perf.cache` — :class:`HistogramCache`, a byte-budgeted
  cache over built histogram files that evicts by rebuild cost per
  byte (GreedyDual-Size), with hit/miss/eviction counters, whose every
  source (L1, store, build) answers with the arrays of a cold build;
  plus :class:`CachedEstimator` to thread the cache under any prepared
  estimator (the :class:`~repro.service.resilient.ResilientEstimator`
  uses this so its rungs build each histogram once), and
  :class:`FlatTreeCache`, the same recipe over bulk-loaded
  :class:`~repro.rtree.flat.FlatRTree` structures for the sampling
  engine's "trees already exist" scenario;
* :mod:`~repro.perf.memo` — :class:`EstimateCache`, the tier-0 memo of
  final selectivity floats keyed by (fingerprint pair, formula,
  extent): warm repeats skip builds *and* combines, bit-identically;
* :mod:`~repro.perf.batch` — :func:`estimate_many`, which deduplicates
  histogram builds across a whole workload of queries, runs the
  distinct builds on a shared thread pool (falling back to serial
  whenever a runtime deadline/fault scope is active, preserving
  checkpoint semantics), and combines each query pair at a time.

``perfbench/run.py`` measures this layer under serving traffic
(``--workload serve-miss --trace 1`` breaks a request down into memo,
fingerprint, resolve, build and combine time); the warm-batch floor
lives in ``tests/perf/test_batch.py``.
"""

from .batch import BatchQuery, estimate_many
from .cache import (
    CachedEstimator,
    CacheKey,
    CacheStats,
    FlatTreeCache,
    HistogramCache,
    TreeCacheKey,
)
from .fingerprint import (
    audit_fingerprint,
    dataset_fingerprint,
    dataset_fingerprint_uncached,
    peek_fingerprint,
    rects_fingerprint,
)
from .memo import EstimateCache, EstimateKey, MemoStats, scheme_formula

__all__ = [
    "BatchQuery",
    "estimate_many",
    "CacheKey",
    "CacheStats",
    "CachedEstimator",
    "HistogramCache",
    "FlatTreeCache",
    "TreeCacheKey",
    "EstimateCache",
    "EstimateKey",
    "MemoStats",
    "scheme_formula",
    "dataset_fingerprint",
    "dataset_fingerprint_uncached",
    "peek_fingerprint",
    "audit_fingerprint",
    "rects_fingerprint",
]
