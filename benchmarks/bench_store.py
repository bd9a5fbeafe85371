"""Artifact-catalog benchmark: zero-copy warm starts vs cold builds.

Emits ``BENCH_store.json`` with two scenarios:

* **warm_open** — for every registry dataset at a fixed cardinality,
  the cold path (``GHHistogram.build`` at h=5 from the raw rectangles)
  against the warm path (``ArtifactCatalog.load_histogram``: manifest
  read + ``np.load(mmap_mode="r")``, no stat plane touched).  Bit
  identity of the two histograms is asserted *before* any timing, so
  the speedup claim is over interchangeable artifacts.
* **warm_start** — a first-touch :meth:`HistogramCache.resolve` sweep
  over the whole catalog through a fresh cache, cold (no store: every
  resolve builds) vs warm (the cache's L2 tier is the prewarmed catalog
  opened read-only), plus how many resolves each sweep sourced from
  the store.

Timings are min-over-repeats of ``time.perf_counter`` intervals.  The
acceptance floors (warm open >= 10x cold build; warm sweep faster than
cold) are *gated*: they only fail the run on a machine with >= 4 CPUs
and never in ``--quick`` mode — elsewhere they are recorded as ungated
observations in the JSON.

Run directly::

    PYTHONPATH=src python benchmarks/bench_store.py            # full
    PYTHONPATH=src python benchmarks/bench_store.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.datasets.registry import PAPER_CARDINALITIES, make_paper_dataset
from repro.histograms import GHHistogram
from repro.histograms.file import histogram_parts
from repro.perf import HistogramCache
from repro.store import ArtifactCatalog

LEVEL = 5
SPEEDUP_FLOOR = 10.0
GATE_MIN_CPUS = 4


def best_of(repeats: int, fn) -> float:
    """Minimum wall time of ``fn`` over ``repeats`` runs (seconds)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def make_datasets(names: list[str], cardinality: int) -> dict:
    return {
        name: make_paper_dataset(
            name, scale=PAPER_CARDINALITIES[name] / cardinality
        )
        for name in names
    }


def bench_warm_open(datasets: dict, root: Path, repeats: int) -> dict:
    catalog = ArtifactCatalog(root)
    per_dataset = {}
    for name, dataset in datasets.items():
        key = HistogramCache.key_for(dataset, "gh", LEVEL)
        built = GHHistogram.build(dataset, LEVEL)
        catalog.put_histogram(
            key, built, source={"dataset": name, "scale": float(len(dataset))}
        )
        # Identity gate before any timing: the two paths must be
        # interchangeable or the speedup is meaningless.
        loaded = catalog.load_histogram(key)
        scalars_a, stats_a = histogram_parts(built)
        scalars_b, stats_b = histogram_parts(loaded)
        assert scalars_a == scalars_b, f"{name}: scalar drift"
        assert np.array_equal(stats_a, stats_b), f"{name}: stat plane drift"

        t_cold = best_of(repeats, lambda: GHHistogram.build(dataset, LEVEL))
        t_warm = best_of(repeats, lambda: catalog.load_histogram(key))
        per_dataset[name] = {
            "rects": len(dataset),
            "cold_build_ms": t_cold * 1e3,
            "warm_open_ms": t_warm * 1e3,
            "speedup": t_cold / t_warm if t_warm > 0 else float("inf"),
        }
    speedups = [d["speedup"] for d in per_dataset.values()]
    return {
        "level": LEVEL,
        "per_dataset": per_dataset,
        "min_speedup": min(speedups),
        "median_speedup": float(np.median(speedups)),
        "catalog_bytes": catalog.total_bytes(),
    }


def bench_warm_open_scaling(
    name: str, cardinalities: list[int], repeats: int
) -> dict:
    """Speedup vs dataset size: the open cost is O(manifest) while the
    build cost is O(rects), so the ratio must grow with cardinality."""
    rows = []
    for cardinality in cardinalities:
        dataset = make_paper_dataset(
            name, scale=PAPER_CARDINALITIES[name] / cardinality
        )
        key = HistogramCache.key_for(dataset, "gh", LEVEL)
        with tempfile.TemporaryDirectory(prefix="bench_store_scale.") as tmp:
            catalog = ArtifactCatalog(Path(tmp))
            catalog.put_histogram(key, GHHistogram.build(dataset, LEVEL))
            t_cold = best_of(repeats, lambda: GHHistogram.build(dataset, LEVEL))
            t_warm = best_of(repeats, lambda: catalog.load_histogram(key))
        rows.append(
            {
                "rects": len(dataset),
                "cold_build_ms": t_cold * 1e3,
                "warm_open_ms": t_warm * 1e3,
                "speedup": t_cold / t_warm if t_warm > 0 else float("inf"),
            }
        )
    return {"dataset": name, "level": LEVEL, "points": rows}


def sweep(datasets: dict, root: "Path | None") -> "tuple[float, int]":
    """First-touch resolve every dataset through a fresh cache.

    Returns ``(seconds, store-sourced resolves)``.  With ``root`` the
    cache's L2 tier is the catalog opened read-only; the timing covers
    opening it, as a freshly started server would.
    """
    start = time.perf_counter()
    store = ArtifactCatalog(root, read_only=True) if root is not None else None
    cache = HistogramCache(store=store)
    sources = [cache.resolve(dataset, "gh", LEVEL)[1] for dataset in datasets.values()]
    return time.perf_counter() - start, sources.count("store")


def bench_warm_start(datasets: dict, root: Path, repeats: int) -> dict:
    """Cold vs warm first-touch sweeps, each the best of ``repeats``."""
    cold_s = best_of(repeats, lambda: sweep(datasets, None))
    warm_s = best_of(repeats, lambda: sweep(datasets, root))
    _, cold_store = sweep(datasets, None)
    _, warm_store = sweep(datasets, root)
    return {
        "datasets": len(datasets),
        "cold_sweep_s": cold_s,
        "warm_sweep_s": warm_s,
        "speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
        "cold_store_resolves": cold_store,
        "warm_store_resolves": warm_store,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: two datasets, tiny cardinality, floors ungated",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_store.json",
        help="output JSON path",
    )
    args = parser.parse_args(argv)

    if args.quick:
        names = sorted(PAPER_CARDINALITIES)[:2]
        cardinality, repeats = 300, 2
    else:
        names = sorted(PAPER_CARDINALITIES)
        cardinality, repeats = 2000, 5

    cpus = os.cpu_count() or 1
    gated = (not args.quick) and cpus >= GATE_MIN_CPUS
    datasets = make_datasets(names, cardinality)

    with tempfile.TemporaryDirectory(prefix="bench_store.") as tmp:
        root = Path(tmp) / "catalog"
        print(f"warm_open: {len(datasets)} datasets x {cardinality} rects, h={LEVEL}")
        warm_open = bench_warm_open(datasets, root, repeats)
        for name, row in warm_open["per_dataset"].items():
            print(
                f"  {name}: build {row['cold_build_ms']:.2f} ms -> "
                f"open {row['warm_open_ms']:.2f} ms ({row['speedup']:.1f}x)"
            )
        print(f"warm_start: first-touch resolve of {len(datasets)} datasets")
        warm_start = bench_warm_start(datasets, root, repeats)
        print(
            f"  cold {warm_start['cold_sweep_s'] * 1e3:.2f} ms -> warm "
            f"{warm_start['warm_sweep_s'] * 1e3:.2f} ms "
            f"({warm_start['speedup']:.1f}x, "
            f"{warm_start['warm_store_resolves']} store resolves)"
        )

    scaling = None
    if not args.quick:
        scaling = bench_warm_open_scaling("CAR", [2000, 8000, 32000, 128000], repeats)
        print("warm_open_scaling (CAR):")
        for row in scaling["points"]:
            print(
                f"  n={row['rects']}: build {row['cold_build_ms']:.2f} ms -> "
                f"open {row['warm_open_ms']:.2f} ms ({row['speedup']:.1f}x)"
            )

    report = {
        "bench": "store",
        "config": {
            "quick": bool(args.quick),
            "cardinality": cardinality,
            "level": LEVEL,
            "repeats": repeats,
            "cpus": cpus,
            "floors_gated": gated,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "notes": (
            "Warm open = manifest read + np.load(mmap_mode='r'); no stat"
            " plane is paged in until first use, which is the zero-copy"
            " point. Bit identity of warm and cold artifacts is asserted"
            " before timing. Floors (warm open >= 10x build; warm resolve"
            " sweep < cold) are enforced only with >= 4 CPUs and never in"
            " --quick; otherwise they are recorded as observations."
        ),
        "scenarios": {"warm_open": warm_open, "warm_start": warm_start},
    }
    if scaling is not None:
        report["scenarios"]["warm_open_scaling"] = scaling
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    failures = []
    # Timing claims are meaningless at --quick scale (a 300-rect build
    # is cheaper than a manifest read); only the full run asserts them.
    if not args.quick and warm_open["min_speedup"] <= 1.0:
        failures.append(
            f"warm open slower than a cold build "
            f"({warm_open['min_speedup']:.2f}x) — the tier is pointless"
        )
    if warm_start["warm_store_resolves"] != len(datasets):
        failures.append(
            f"warm sweep resolved from the store only "
            f"{warm_start['warm_store_resolves']}/{len(datasets)} times"
        )
    if warm_start["cold_store_resolves"] != 0:
        failures.append("cold sweep unexpectedly resolved from the store")
    if gated:
        if warm_open["min_speedup"] < SPEEDUP_FLOOR:
            failures.append(
                f"gated floor: warm open {warm_open['min_speedup']:.1f}x < "
                f"{SPEEDUP_FLOOR:.0f}x"
            )
        if warm_start["speedup"] <= 1.0:
            failures.append(
                "gated floor: warm resolve sweep not faster "
                f"({warm_start['speedup']:.2f}x)"
            )
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
