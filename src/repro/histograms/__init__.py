"""Histogram-based selectivity estimators (the paper's Section 3).

* :func:`parametric_selectivity` — the Aref–Samet closed-form baseline
  (Equations 1–2); equivalently PH at gridding level 0.
* :class:`PHHistogram` — the Parametric Histogram scheme (Table 1,
  Equation 3) with Cont/Isect splitting and the AvgSpan correction.
* :class:`GHHistogram` — the Geometric Histogram scheme (Table 2,
  Equation 5), the paper's main contribution.
* :class:`BasicGHHistogram` — the count-based precursor (Equation 4),
  kept for the worked examples and ablations.

Each scheme has one ``build``: one split of the rectangles into
single-cell and spanning (:class:`~repro.histograms.grid.CellSplit`)
feeds every per-cell statistic, scattered with ``np.add.at``; only the
spanning ones expand into runs (:class:`~repro.histograms.grid.GridRuns`).
"""

from .endpoint import EndpointHistogram, endpoint_inequality_estimate
from .gh import GHHistogram, gh_selectivity
from .gh_basic import BasicGHHistogram, gh_basic_selectivity
from .grid import MAX_LEVEL, CellOverlap, Grid
from .file import (
    histogram_from_bytes,
    histogram_to_bytes,
    load_histogram,
    save_histogram,
)
from .diagnostics import GHContributions, cell_contributions
from .fused import (
    GHStack,
    fused_pair_estimates,
    fused_selectivity_matrix,
    stack_gh,
)
from .maintenance import apply_updates, merge_histograms
from .parametric import aref_samet_selectivity, aref_samet_size, parametric_selectivity
from .ph import PHHistogram, ph_selectivity
from .range_query import range_count_gh, range_count_parametric, range_count_ph

__all__ = [
    "EndpointHistogram",
    "endpoint_inequality_estimate",
    "apply_updates",
    "merge_histograms",
    "range_count_gh",
    "range_count_ph",
    "range_count_parametric",
    "cell_contributions",
    "GHContributions",
    "GHStack",
    "stack_gh",
    "fused_pair_estimates",
    "fused_selectivity_matrix",
    "Grid",
    "CellOverlap",
    "MAX_LEVEL",
    "aref_samet_size",
    "aref_samet_selectivity",
    "parametric_selectivity",
    "PHHistogram",
    "ph_selectivity",
    "GHHistogram",
    "gh_selectivity",
    "BasicGHHistogram",
    "gh_basic_selectivity",
    "save_histogram",
    "load_histogram",
    "histogram_to_bytes",
    "histogram_from_bytes",
]
