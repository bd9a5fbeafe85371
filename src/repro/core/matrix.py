"""All-pairs selectivity estimation with prepare-once semantics.

A query optimizer planning over ``k`` relations needs all ``k*(k-1)/2``
pairwise selectivities.  Estimating each pair independently would build
every histogram ``k - 1`` times; :func:`pairwise_selectivities` prepares
each dataset exactly once on a shared extent and combines summaries —
the intended production flow, and the natural input to
:func:`repro.core.optimizer.optimize_join_order`.

For GH estimators the combine loop itself is fused: the k prepared
histogram files go to
:func:`~repro.histograms.fused.fused_selectivity_matrix`, which answers
each pair with two whole-half BLAS dot products on [C|H]·[O|V] views of
the histograms' own plane blocks (Equation 5 is a sum of elementwise
products, and each file keeps ``C, H, O, V`` as the rows of one block,
so ``C·O + H·V`` is one dot over ``2·cells`` floats).  Nothing is
stacked or copied.  The per-pair combine runs the same dots in chunks
of at most 8 192 floats (:func:`~repro.histograms.fused.cross_dot`), so
fused entries ``==`` per-pair combines at levels 0–6, where a half is
one chunk, and agree to ~1e-15 relative above, where BLAS may thread
and reorder a whole-half dot.  ``engine="pairwise"`` runs the per-pair
combine for callers that need its floats at every level.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Sequence, Tuple

from ..datasets import SpatialDataset
from ..geometry import Rect
from ..histograms.fused import fused_selectivity_matrix
from .estimator import GHEstimator, PreparedEstimator

__all__ = ["pairwise_selectivities"]

_ENGINES = ("auto", "fused", "pairwise")


def _gh_fusable(estimator: PreparedEstimator) -> bool:
    """Whether the estimator's summaries are plain GH files.

    True for a plain :class:`GHEstimator` and for wrappers (e.g.
    :class:`~repro.perf.cache.CachedEstimator`) whose ``inner`` is one —
    both prepare :class:`~repro.histograms.GHHistogram` objects whose
    combine is exactly Equation 5.  Subclasses are excluded: an
    overridden ``combine`` would silently diverge from the fused kernel.
    """
    base = getattr(estimator, "inner", estimator)
    return type(base) is GHEstimator


def pairwise_selectivities(
    datasets: Sequence[SpatialDataset],
    estimator: PreparedEstimator | None = None,
    *,
    extent: Rect | None = None,
    engine: str = "auto",
) -> Dict[Tuple[str, str], float]:
    """Estimated selectivity for every dataset pair, keyed by sorted names.

    Each dataset is prepared once on a shared extent (given, or the
    union of all declared extents).  A dataset whose declared extent
    already is the shared one is prepared as is; only the others are
    re-declared through :meth:`~repro.datasets.SpatialDataset.with_extent`.
    Nothing here scans rectangles, so a warm call (every summary cached,
    every fingerprint memoized) costs O(k²) in the number of datasets,
    independent of their sizes.  Dataset names must be unique.
    Output keys are ``(name_a, name_b)`` with ``name_a <= name_b`` —
    exactly the shape :func:`~repro.core.optimizer.optimize_join_order`
    consumes.

    ``engine`` selects the combine loop: ``"auto"`` (default) fuses the
    GH matrix through BLAS and falls back to per-pair combines for
    everything else; ``"fused"`` demands the fused kernel (ValueError
    for non-GH estimators); ``"pairwise"`` forces the scalar loop.
    """
    if engine not in _ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {_ENGINES}")
    if estimator is None:
        estimator = GHEstimator(level=7)
    names = [ds.name for ds in datasets]
    if len(set(names)) != len(names):
        raise ValueError(f"dataset names must be unique, got {names}")
    if len(datasets) < 2:
        raise ValueError("need at least two datasets")
    if extent is None:
        extent = datasets[0].extent
        for ds in datasets[1:]:
            if ds.extent != extent:  # the common case, equal extents, needs no union
                extent = extent.union(ds.extent)
    fusable = _gh_fusable(estimator)
    if engine == "fused" and not fusable:
        raise ValueError(
            f"engine='fused' needs a GH estimator, got {type(estimator).__name__}"
        )
    summaries = {
        ds.name: estimator.prepare(
            ds if ds.extent == extent else ds.with_extent(extent), extent=extent
        )
        for ds in datasets
    }
    ordered = sorted(names)
    pairs = list(combinations(ordered, 2))
    if fusable and engine != "pairwise":
        values = fused_selectivity_matrix([summaries[name] for name in ordered])
    else:
        values = [estimator.combine(summaries[a], summaries[b]) for a, b in pairs]
    return dict(zip(pairs, values))
