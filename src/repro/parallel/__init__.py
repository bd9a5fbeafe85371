"""Multiprocess exact-join oracle and sampling-replica driver.

Ground truth is the expensive side of evaluating a selectivity
estimator: every accuracy number in the paper is a relative error
against the *exact* join count.  This package makes that oracle cheap
enough to re-run on every change:

* :mod:`~repro.parallel.partition` — the PBSM grid's rows sharded
  across a ``ProcessPoolExecutor``; bit-identical to the serial engine
  (the workers run the very same band kernel) with automatic serial
  fallback and deadline threading;
* :mod:`~repro.parallel.sampling` — fan-out of independent sampling
  replicas (confidence repeats, accuracy sweeps) over the same pool
  machinery;
* :mod:`~repro.parallel.shm` — one-time shipping of rect arrays to the
  pool via ``multiprocessing.shared_memory``.

The user-facing switch is ``workers=`` on :func:`repro.join.join_count`
/ ``join_pairs`` / ``actual_selectivity`` and on
:meth:`repro.sampling.SamplingJoinEstimator.estimate_with_confidence`;
the functions here are the engine underneath plus the detailed
(per-shard timing) interface used by the benchmarks.
"""

from .partition import (
    MIN_PARALLEL,
    ParallelJoinResult,
    parallel_partition_join_count,
    parallel_partition_join_detailed,
    parallel_partition_join_pairs,
    resolve_workers,
)
from .sampling import parallel_sampling_estimates
from .shm import SharedRects, attach_rects

__all__ = [
    "MIN_PARALLEL",
    "ParallelJoinResult",
    "parallel_partition_join_count",
    "parallel_partition_join_detailed",
    "parallel_partition_join_pairs",
    "parallel_sampling_estimates",
    "resolve_workers",
    "SharedRects",
    "attach_rects",
]
