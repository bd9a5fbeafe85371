"""Serving-path benchmark: build path, scatter backend, cache, batching.

Measures the perf claims of the serving subsystem and emits
``BENCH_serving.json`` — the repo's performance-trajectory file:

* **build** — optimized GH/PH build path (shared index expansion, see
  ``histograms/grid.py:GridRuns``) vs the legacy pre-optimization path
  (``np.add.at`` backend + per-stage expansion, restored by
  ``add_at_baseline``).  A/B runs are interleaved within one loop and
  take the min, so machine-speed drift between the two passes cannot
  fake a speedup either way.
* **scatter_backend** — the raw ``np.bincount`` vs ``np.add.at`` kernel
  A/B at a build-representative shape.  On numpy ≥ 2.x ``add.at`` has
  an indexed fast path and *wins at every density*; this section keeps
  the measured evidence for that backend choice in the trajectory file.
* **cache** — cold (build both histograms) vs warm (two cache hits)
  single-estimate latency, plus GH pyramid pooling (``downsample_gh``,
  which the cache itself does not use) vs a fresh coarse build;
* **batch** — a 50-query workload over the paper's datasets: cold
  per-query estimation vs warm-cache ``estimate_many`` (claim: ≥ 5×),
  with throughput and cache hit rate.

Run directly::

    PYTHONPATH=src python benchmarks/bench_serving.py            # full, scale 20
    PYTHONPATH=src python benchmarks/bench_serving.py --quick    # CI smoke

``--quick`` shrinks the datasets, trims repeats, and *asserts* the
warm-cache ≥ 5× claim so CI fails if the cache regresses.  The full run
additionally asserts the build-path speedup floors (GH ≥ 1.5×,
PH ≥ 1.2× at level 6+ — the measured-minus-noise-margin regression
gates; measured centers are ~1.9× and ~1.4×, see DESIGN.md for why the
issue's anticipated 2× bincount win does not exist on numpy ≥ 2.x).
"""

from __future__ import annotations

import argparse
import itertools
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.estimator import GHEstimator
from repro.datasets import paper_pairs
from repro.eval.timing import measure_best, measure_seconds
from repro.histograms import GHHistogram, PHHistogram, add_at_baseline, downsample_gh
from repro.perf import BatchQuery, HistogramCache, estimate_many

WORKLOAD_QUERIES = 50
GH_LEVEL = 7
#: Regression floors for the build-path A/B (measured centers ~1.9x / ~1.4x
#: on the scale-20 pair; floors leave margin for scheduler noise).
BUILD_FLOORS = {"gh": 1.5, "ph": 1.2}


def bench_build(ds1, ds2, levels, repeats) -> list[dict]:
    """Build-time A/B: optimized path vs the legacy add.at baseline."""
    rows = []
    for scheme, cls in (("gh", GHHistogram), ("ph", PHHistogram)):
        for level in levels:
            def build():
                cls.build(ds1, level)
                cls.build(ds2, level)

            build()  # warm caches and allocators before timing
            fast = slow = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                build()
                fast = min(fast, time.perf_counter() - t0)
                with add_at_baseline():
                    t0 = time.perf_counter()
                    build()
                    slow = min(slow, time.perf_counter() - t0)
            rows.append(
                {
                    "scheme": scheme,
                    "level": level,
                    "optimized_seconds": fast,
                    "legacy_seconds": slow,
                    "speedup": slow / fast if fast > 0 else float("inf"),
                }
            )
            print(
                f"  build {scheme} level {level}: optimized {fast*1e3:8.2f} ms"
                f"  legacy {slow*1e3:8.2f} ms  -> {slow/fast:5.2f}x"
            )
    return rows


def bench_scatter_backend(cells=16384, n=57716, repeats=200) -> dict:
    """Raw kernel A/B at a build-representative shape (PH level 7)."""
    rng = np.random.default_rng(0)
    idx = rng.integers(0, cells, n)
    weights = rng.random(n)
    out = np.zeros(cells)

    def run(fn):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    bincount_s = run(
        lambda: out.__iadd__(np.bincount(idx, weights=weights, minlength=cells))
    )
    out2 = np.zeros(cells)
    add_at_s = run(lambda: np.add.at(out2, idx, weights))
    row = {
        "cells": cells,
        "incidences": n,
        "bincount_seconds": bincount_s,
        "add_at_seconds": add_at_s,
        "add_at_over_bincount": add_at_s / bincount_s,
        "numpy": np.__version__,
    }
    print(
        f"  scatter backend ({n} -> {cells}): bincount {bincount_s*1e6:7.1f} us"
        f"  add.at {add_at_s*1e6:7.1f} us"
        f"  (add.at/bincount = {row['add_at_over_bincount']:.2f})"
    )
    return row


def bench_cache(ds1, ds2, level) -> dict:
    """Cold vs warm single-estimate latency plus pyramid pooling vs rebuild."""
    estimator = GHEstimator(level=level)

    def cold():
        estimator.estimate(ds1, ds2)

    cold_s = measure_seconds(cold, min_repeats=3)

    cache = HistogramCache()
    cache.get_or_build(ds1, "gh", level)
    cache.get_or_build(ds2, "gh", level)

    def warm():
        h1 = cache.get_or_build(ds1, "gh", level)
        h2 = cache.get_or_build(ds2, "gh", level)
        h1.estimate_selectivity(h2)

    warm_s = measure_seconds(warm, min_repeats=10)

    fine = cache.get_or_build(ds1, "gh", level)
    coarse_level = max(0, level - 3)
    derive_s = measure_seconds(
        lambda: _derive(fine, coarse_level), min_repeats=5
    )
    rebuild_s = measure_seconds(
        lambda: GHHistogram.build(ds1, coarse_level), min_repeats=5
    )
    row = {
        "level": level,
        "cold_estimate_seconds": cold_s,
        "warm_estimate_seconds": warm_s,
        "warm_speedup": cold_s / warm_s,
        "derive_level": coarse_level,
        "derive_seconds": derive_s,
        "rebuild_seconds": rebuild_s,
        "derive_speedup": rebuild_s / derive_s if derive_s > 0 else float("inf"),
    }
    print(
        f"  cache level {level}: cold {cold_s*1e3:.2f} ms  warm {warm_s*1e6:.1f} us"
        f"  -> {row['warm_speedup']:.0f}x ; derive({coarse_level}) {derive_s*1e6:.1f} us"
        f" vs rebuild {rebuild_s*1e3:.2f} ms -> {row['derive_speedup']:.0f}x"
    )
    return row


def _derive(fine, level):
    hist = fine
    for _ in range(fine.grid.level - level):
        hist = downsample_gh(hist)
    return hist


def bench_batch(datasets, level) -> dict:
    """50-query workload: cold per-query estimation vs warm batched."""
    ordered = sorted(datasets, key=lambda d: d.name)
    pairs = [
        (a, b) for a, b in itertools.combinations(ordered, 2) if a.extent == b.extent
    ]
    queries = [
        BatchQuery(*pairs[i % len(pairs)], scheme="gh", level=level)
        for i in range(WORKLOAD_QUERIES)
    ]

    estimator = GHEstimator(level=level)

    def cold():
        for q in queries:
            estimator.estimate(q.ds1, q.ds2)

    cold_s = measure_best(cold, repeats=3)

    cache = HistogramCache()
    estimate_many(queries, cache=cache)  # warm the cache once
    warm_s = measure_best(lambda: estimate_many(queries, cache=cache), repeats=3)

    batch_cold_cache = HistogramCache()
    batch_cold_s = measure_best(
        lambda: _cold_batch(queries, batch_cold_cache), repeats=3
    )

    row = {
        "queries": len(queries),
        "distinct_datasets": len(ordered),
        "cold_per_query_seconds": cold_s,
        "batched_cold_seconds": batch_cold_s,
        "batched_warm_seconds": warm_s,
        "warm_vs_cold_speedup": cold_s / warm_s,
        "batched_cold_vs_cold_speedup": cold_s / batch_cold_s,
        "warm_throughput_qps": len(queries) / warm_s,
        "cache": cache.stats.snapshot(),
    }
    print(
        f"  batch {len(queries)} queries: cold {cold_s:.3f} s"
        f"  batched-cold {batch_cold_s:.3f} s  warm {warm_s*1e3:.2f} ms"
        f"  -> warm {row['warm_vs_cold_speedup']:.0f}x,"
        f" {row['warm_throughput_qps']:.0f} q/s,"
        f" hit rate {cache.stats.hit_rate:.2f}"
    )
    return row


def _cold_batch(queries, cache):
    cache.clear()
    return estimate_many(queries, cache=cache)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small datasets + assertions; the CI smoke configuration",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="paper-pair downscale factor (default: 20 full, 200 quick)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_serving.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    scale = args.scale if args.scale is not None else (200.0 if args.quick else 20.0)
    levels = (6,) if args.quick else (6, 7)
    repeats = 5 if args.quick else 40

    print(f"loading paper pairs at scale {scale:g} ...")
    pairs = paper_pairs(scale=scale)
    ts, tcb = pairs["TS_TCB"]
    datasets = {ds.name: ds for pair in pairs.values() for ds in pair}

    print("build path (optimized vs legacy add.at baseline):")
    build_rows = bench_build(ts, tcb, levels, repeats)
    print("scatter backend microbenchmark:")
    backend_row = bench_scatter_backend()
    print("histogram cache:")
    cache_row = bench_cache(ts, tcb, GH_LEVEL)
    print("batched estimation:")
    batch_row = bench_batch(list(datasets.values()), GH_LEVEL)

    report = {
        "config": {
            "scale": scale,
            "quick": bool(args.quick),
            "pair": "TS_TCB",
            "sizes": {"TS": len(ts), "TCB": len(tcb)},
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "notes": (
            "Legacy baseline = pre-optimization build path: np.add.at scatter"
            " backend plus per-stage index expansion (add_at_baseline). The"
            " optimized path is bit-identical to it (tests assert"
            " np.array_equal). On this numpy, np.add.at beats np.bincount at"
            " every measured density (see scatter_backend), so the speedup"
            " comes from sharing one cell-range/run expansion across all"
            " statistics, not from the scatter kernel."
        ),
        "build": build_rows,
        "scatter_backend": backend_row,
        "cache": cache_row,
        "batch": batch_row,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    failures = []
    if batch_row["warm_vs_cold_speedup"] < 5.0:
        failures.append(
            f"warm-cache estimate_many only {batch_row['warm_vs_cold_speedup']:.1f}x"
            " faster than cold per-query estimation (need >= 5x)"
        )
    if not args.quick:
        # Build-path floors are calibrated for paper-shaped data; quick CI
        # datasets are too small for a stable build A/B.
        slow_rows = [
            r
            for r in build_rows
            if r["level"] >= 6 and r["speedup"] < BUILD_FLOORS[r["scheme"]]
        ]
        if slow_rows:
            failures.append(f"build speedup below regression floor: {slow_rows}")
    if failures:
        print("BENCH FAILURES:\n  " + "\n  ".join(failures))
        return 1
    print("all perf claims hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
