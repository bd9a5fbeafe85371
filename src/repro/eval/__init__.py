"""Evaluation harness reproducing the paper's Figures 6 and 7."""

from .ablations import (
    AblationRow,
    render_ablations,
    run_gh_variant_ablation,
    run_packing_ablation,
    run_ph_avgspan_ablation,
    run_sample_join_ablation,
)
from .figures import format_pct, render_figure6, render_figure7
from .golden import (
    GOLDEN_ESTIMATORS,
    GOLDEN_PAIRS,
    GoldenMismatch,
    build_corpus,
    check_corpus,
)
from .stability import StabilityRow, render_stability, run_stability_experiment
from .harness import (
    HISTOGRAM_SCHEMES,
    HistogramCell,
    PairContext,
    SamplingCell,
    prepare_pair,
    prepare_pairs,
    run_histogram_experiment,
    run_sampling_experiment,
)
from .inventory import DatasetRow, PairRow, render_inventory, run_inventory
from .report import write_csv
from .timing import measure_best, measure_seconds

__all__ = [
    "PairContext",
    "SamplingCell",
    "HistogramCell",
    "prepare_pair",
    "prepare_pairs",
    "run_sampling_experiment",
    "run_histogram_experiment",
    "HISTOGRAM_SCHEMES",
    "render_figure6",
    "render_figure7",
    "format_pct",
    "measure_seconds",
    "measure_best",
    "GOLDEN_PAIRS",
    "GOLDEN_ESTIMATORS",
    "GoldenMismatch",
    "build_corpus",
    "check_corpus",
    "AblationRow",
    "render_ablations",
    "run_gh_variant_ablation",
    "run_ph_avgspan_ablation",
    "run_sample_join_ablation",
    "run_packing_ablation",
    "StabilityRow",
    "run_stability_experiment",
    "render_stability",
    "write_csv",
    "DatasetRow",
    "PairRow",
    "run_inventory",
    "render_inventory",
]
