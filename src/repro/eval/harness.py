"""Experiment harness reproducing the paper's evaluation (Section 4).

Two experiment drivers:

* :func:`run_sampling_experiment` — Figure 6: for each join pair, each
  sample-size combination, and each technique (RSWR/RS/SS), measure the
  estimation error, ``Est. Time 1`` (relative to R-tree build + join)
  and ``Est. Time 2`` (relative to join only).
* :func:`run_histogram_experiment` — Figure 7: for each join pair,
  scheme (PH/GH, optionally basic GH) and gridding level 0–9, measure
  the estimation error, estimation time (relative to the actual join),
  building time (relative to R-tree construction) and space cost
  (relative to the R-tree sizes).

Both consume :class:`PairContext` objects made by :func:`prepare_pair`,
which computes the ground truth once per pair: the actual join result
(via the R-tree join, as in the paper) plus the reference R-tree build
times and sizes that all relative metrics are normalized by.  The
reference join and the sampling estimators' sample joins run the same
kernel (:func:`~repro.rtree.flat_join_count`), so every time ratio
compares one R-tree join with another.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Tuple

from ..core.metrics import relative_error_pct
from ..core.workload import FIGURE6_COMBOS, FIGURE6_METHODS, FIGURE7_LEVELS, SampleCombo
from ..datasets import SpatialDataset
from ..geometry import RectArray
from ..histograms.file import HISTOGRAM_SCHEMES
from ..rtree import FlatRTree, RTree, flat_join_count, flat_load_str, tree_size_bytes
from ..sampling import SamplingJoinEstimator
from .timing import measure_seconds

__all__ = [
    "PairContext",
    "SamplingCell",
    "HistogramCell",
    "prepare_pair",
    "prepare_pairs",
    "run_sampling_experiment",
    "run_histogram_experiment",
    "HISTOGRAM_SCHEMES",
]


@dataclass(frozen=True)
class PairContext:
    """One join pair plus its ground truth and reference costs."""

    name: str
    ds1: SpatialDataset
    ds2: SpatialDataset
    actual_pairs: int
    actual_selectivity: float
    join_seconds: float  #: R-tree join, trees already built
    build_seconds: float  #: building both R-trees
    rtree_bytes: int  #: size of both R-trees


@dataclass(frozen=True)
class SamplingCell:
    """One bar of Figure 6."""

    pair: str
    combo: str
    method: str
    selectivity: float
    error_pct: float
    est_time1_pct: float  #: vs (build trees + join)
    est_time2_pct: float  #: vs (join only)
    seconds: float


@dataclass(frozen=True)
class HistogramCell:
    """One point of Figure 7."""

    pair: str
    scheme: str
    level: int
    selectivity: float
    error_pct: float
    est_time_pct: float  #: combine step vs join
    build_time_pct: float  #: histogram build vs R-tree build
    space_pct: float  #: histogram bytes vs R-tree bytes
    est_seconds: float
    build_seconds: float
    space_bytes: int


# ----------------------------------------------------------------------
def prepare_pair(
    name: str,
    ds1: SpatialDataset,
    ds2: SpatialDataset,
    *,
    tree_build: str = "str",
) -> PairContext:
    """Compute ground truth and reference R-tree costs for one pair.

    ``tree_build`` selects the reference R-tree construction whose time
    and size normalize the relative metrics: ``"str"`` (default; STR
    bulk loading, what a modern system does) or ``"dynamic"`` (per-tuple
    Guttman insertion, the paper's setting — ~200x slower, which makes
    Bld.Time percentages match the paper's much smaller values; the
    inserted tree is flattened with its node structure, so the join and
    the space accounting see its real shape).  Either way the reference
    join is :func:`~repro.rtree.flat_join_count`, the sample joins'
    kernel.
    """
    if tree_build == "str":
        build = flat_load_str
    elif tree_build == "dynamic":
        build = _insertion_built
    else:
        raise ValueError(f"tree_build must be 'str' or 'dynamic', got {tree_build!r}")
    t0 = time.perf_counter()
    tree1 = build(ds1.rects)
    tree2 = build(ds2.rects)
    t1 = time.perf_counter()
    pairs = flat_join_count(tree1, tree2)
    t2 = time.perf_counter()
    n1, n2 = len(ds1), len(ds2)
    return PairContext(
        name=name,
        ds1=ds1,
        ds2=ds2,
        actual_pairs=pairs,
        actual_selectivity=pairs / (n1 * n2) if n1 and n2 else 0.0,
        join_seconds=t2 - t1,
        build_seconds=t1 - t0,
        rtree_bytes=tree_size_bytes(tree1) + tree_size_bytes(tree2),
    )


def _insertion_built(rects: RectArray) -> FlatRTree:
    """Guttman insertion, flattened with its node structure for the join."""
    return FlatRTree.from_tree(RTree.from_rect_array(rects))


def prepare_pairs(
    pairs: Mapping[str, Tuple[SpatialDataset, SpatialDataset]],
    *,
    tree_build: str = "str",
) -> list[PairContext]:
    """Prepare contexts for a ``name -> (ds1, ds2)`` mapping."""
    return [
        prepare_pair(name, ds1, ds2, tree_build=tree_build)
        for name, (ds1, ds2) in pairs.items()
    ]


# ----------------------------------------------------------------------
def run_sampling_experiment(
    contexts: Iterable[PairContext],
    *,
    combos: Sequence[SampleCombo] = FIGURE6_COMBOS,
    methods: Sequence[str] = FIGURE6_METHODS,
    seed: int = 0,
    repeats: int = 3,
) -> list[SamplingCell]:
    """Figure 6: sampling error and time costs over all combinations.

    ``repeats`` runs per configuration are averaged (RSWR re-seeds each
    run; RS/SS are deterministic but re-timed).
    """
    cells: list[SamplingCell] = []
    for ctx in contexts:
        denominator1 = ctx.build_seconds + ctx.join_seconds
        denominator2 = ctx.join_seconds
        for combo in combos:
            for method in methods:
                sel_sum = 0.0
                sec_sum = 0.0
                for run in range(repeats):
                    estimator = SamplingJoinEstimator(
                        method,
                        combo.fraction1,
                        combo.fraction2,
                        seed=seed + 7919 * run,
                    )
                    detail = estimator.estimate_detailed(ctx.ds1, ctx.ds2)
                    sel_sum += detail.selectivity
                    sec_sum += detail.timing.total_seconds
                selectivity = sel_sum / repeats
                seconds = sec_sum / repeats
                cells.append(
                    SamplingCell(
                        pair=ctx.name,
                        combo=combo.label,
                        method=method,
                        selectivity=selectivity,
                        error_pct=relative_error_pct(selectivity, ctx.actual_selectivity),
                        est_time1_pct=100.0 * seconds / denominator1,
                        est_time2_pct=100.0 * seconds / denominator2,
                        seconds=seconds,
                    )
                )
    return cells


# ----------------------------------------------------------------------
def run_histogram_experiment(
    contexts: Iterable[PairContext],
    *,
    levels: Sequence[int] = FIGURE7_LEVELS,
    schemes: Sequence[str] = ("ph", "gh"),
) -> list[HistogramCell]:
    """Figure 7: histogram error / time / space over gridding levels."""
    for scheme in schemes:
        if scheme not in HISTOGRAM_SCHEMES:
            raise ValueError(
                f"unknown scheme {scheme!r}; choose from {sorted(HISTOGRAM_SCHEMES)}"
            )
    cells: list[HistogramCell] = []
    for ctx in contexts:
        extent = ctx.ds1.extent
        for scheme in schemes:
            hist_cls = HISTOGRAM_SCHEMES[scheme]
            for level in levels:
                t0 = time.perf_counter()
                h1 = hist_cls.build(ctx.ds1, level, extent=extent)
                h2 = hist_cls.build(ctx.ds2, level, extent=extent)
                build_seconds = time.perf_counter() - t0
                selectivity = h1.estimate_selectivity(h2)
                est_seconds = measure_seconds(lambda: h1.estimate_selectivity(h2))
                space_bytes = h1.size_bytes + h2.size_bytes
                cells.append(
                    HistogramCell(
                        pair=ctx.name,
                        scheme=scheme,
                        level=level,
                        selectivity=selectivity,
                        error_pct=relative_error_pct(selectivity, ctx.actual_selectivity),
                        est_time_pct=100.0 * est_seconds / ctx.join_seconds,
                        build_time_pct=100.0 * build_seconds / ctx.build_seconds,
                        space_pct=100.0 * space_bytes / ctx.rtree_bytes,
                        est_seconds=est_seconds,
                        build_seconds=build_seconds,
                        space_bytes=space_bytes,
                    )
                )
    return cells
