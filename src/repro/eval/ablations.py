"""Standalone ablation studies (DESIGN.md §6).

Each function runs one ablation over prepared pair contexts and returns
plain result rows; :func:`render_ablations` formats them.  The pytest
benchmarks in ``benchmarks/bench_ablation_*.py`` measure the *timing*
side with statistical rigor; these drivers produce the full
accuracy/cost tables in one pass for reports
(``python -m repro.eval ablations``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..core.metrics import relative_error_pct
from ..histograms import BasicGHHistogram, GHHistogram, PHHistogram
from ..rtree import FlatRTree, RTree, flat_join_count, flat_load_hilbert, flat_load_str
from ..sampling import SamplingJoinEstimator
from .harness import PairContext

__all__ = [
    "AblationRow",
    "run_gh_variant_ablation",
    "run_ph_avgspan_ablation",
    "run_sample_join_ablation",
    "run_packing_ablation",
    "render_ablations",
]


@dataclass(frozen=True)
class AblationRow:
    """One measurement of one ablation."""

    study: str
    pair: str
    variant: str
    parameter: str
    error_pct: float | None
    seconds: float


def run_gh_variant_ablation(
    contexts: Iterable[PairContext], *, levels: Sequence[int] = (3, 5, 7)
) -> list[AblationRow]:
    """Basic GH (Eq. 4 counts) vs revised GH (Eq. 5 ratios)."""
    rows = []
    for ctx in contexts:
        for level in levels:
            for variant, cls in (("basic", BasicGHHistogram), ("revised", GHHistogram)):
                t0 = time.perf_counter()
                h1 = cls.build(ctx.ds1, level, extent=ctx.ds1.extent)
                h2 = cls.build(ctx.ds2, level, extent=ctx.ds1.extent)
                selectivity = h1.estimate_selectivity(h2)
                seconds = time.perf_counter() - t0
                rows.append(
                    AblationRow(
                        "gh-variant",
                        ctx.name,
                        variant,
                        f"h={level}",
                        relative_error_pct(selectivity, ctx.actual_selectivity),
                        seconds,
                    )
                )
    return rows


def run_ph_avgspan_ablation(
    contexts: Iterable[PairContext], *, levels: Sequence[int] = (3, 5, 7)
) -> list[AblationRow]:
    """PH with and without the AvgSpan multiple-counting correction."""
    rows = []
    for ctx in contexts:
        for level in levels:
            h1 = PHHistogram.build(ctx.ds1, level, extent=ctx.ds1.extent)
            h2 = PHHistogram.build(ctx.ds2, level, extent=ctx.ds1.extent)
            for variant, flag in (("corrected", True), ("uncorrected", False)):
                t0 = time.perf_counter()
                selectivity = h1.estimate_selectivity(h2, span_correction=flag)
                seconds = time.perf_counter() - t0
                rows.append(
                    AblationRow(
                        "ph-avgspan",
                        ctx.name,
                        variant,
                        f"h={level}",
                        relative_error_pct(selectivity, ctx.actual_selectivity),
                        seconds,
                    )
                )
    return rows


def run_sample_join_ablation(
    contexts: Iterable[PairContext], *, fractions: Sequence[float] = (0.1, 0.3)
) -> list[AblationRow]:
    """R-tree join vs plane sweep as the sample-join substrate."""
    rows = []
    for ctx in contexts:
        for fraction in fractions:
            for variant in ("flat", "sweep"):
                estimator = SamplingJoinEstimator(
                    "rs", fraction, fraction, join_method=variant
                )
                t0 = time.perf_counter()
                selectivity = estimator.estimate(ctx.ds1, ctx.ds2)
                seconds = time.perf_counter() - t0
                rows.append(
                    AblationRow(
                        "sample-join",
                        ctx.name,
                        variant,
                        f"f={fraction:g}",
                        relative_error_pct(selectivity, ctx.actual_selectivity),
                        seconds,
                    )
                )
    return rows


def run_packing_ablation(
    contexts: Iterable[PairContext], *, dynamic_limit: int = 30_000
) -> list[AblationRow]:
    """STR vs Hilbert packing vs dynamic insertion (quadratic and R*
    splits): build + join cost.  Inserted trees are flattened with their
    node structure, so every variant joins through the one flat kernel."""
    loaders = {
        "str": flat_load_str,
        "hilbert": flat_load_hilbert,
        "dynamic": lambda rects: FlatRTree.from_tree(RTree.from_rect_array(rects)),
        "dynamic-rstar": lambda rects: FlatRTree.from_tree(
            RTree.from_rect_array(rects, split="rstar")
        ),
    }
    rows = []
    for ctx in contexts:
        for variant, loader in loaders.items():
            if variant.startswith("dynamic") and len(ctx.ds1) + len(ctx.ds2) > dynamic_limit:
                continue
            t0 = time.perf_counter()
            tree1 = loader(ctx.ds1.rects)
            tree2 = loader(ctx.ds2.rects)
            build_seconds = time.perf_counter() - t0
            t0 = time.perf_counter()
            count = flat_join_count(tree1, tree2)
            join_seconds = time.perf_counter() - t0
            if count != ctx.actual_pairs:
                raise AssertionError(
                    f"packing {variant} changed the join result on {ctx.name}"
                )
            rows.append(
                AblationRow("packing", ctx.name, variant, "build", None, build_seconds)
            )
            rows.append(
                AblationRow("packing", ctx.name, variant, "join", None, join_seconds)
            )
    return rows


def render_ablations(rows: Sequence[AblationRow]) -> str:
    """Aligned text table grouped by study and pair."""
    out: list[str] = []
    current = None
    for row in rows:
        key = (row.study, row.pair)
        if key != current:
            if current is not None:
                out.append("")
            out.append(f"Ablation [{row.study}] — {row.pair}")
            out.append(f"{'variant':>12} {'param':>8} {'error':>10} {'seconds':>10}")
            current = key
        error = f"{row.error_pct:.2f}%" if row.error_pct is not None else "-"
        out.append(f"{row.variant:>12} {row.parameter:>8} {error:>10} {row.seconds:>10.4f}")
    return "\n".join(out)
