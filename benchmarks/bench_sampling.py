"""Sampling-kernel benchmark: flat SoA R-tree vs the object tree.

Measures the "build sample trees, join them" hot path of the sampling
estimators and emits ``BENCH_sampling.json``:

* **kernel** — ``flat_load_str`` + ``flat_join_count`` vs
  ``bulk_load_str`` + ``rtree_join_count`` at several dataset sizes,
  build and join timed separately (min over repeats).  Every flat count
  is verified bit-identical to the object-tree count before its timing
  is recorded — a fast wrong answer never makes it into the trajectory
  file.
* **estimator** — end-to-end ``SamplingJoinEstimator`` with
  ``join_method="flat"`` vs ``join_method="rtree"``, estimates asserted
  identical (same seed, same sample ids, bit-identical sample count).
* **cache** — the same estimator with a ``FlatTreeCache`` attached:
  cold vs warm estimate and the cache's hit/build counters.

Run directly::

    PYTHONPATH=src python benchmarks/bench_sampling.py           # full
    PYTHONPATH=src python benchmarks/bench_sampling.py --quick   # CI smoke

``--quick`` shrinks sizes and asserts only bit-identity — the CI
configuration, meaningful on any machine.  The full run additionally
asserts the speedup regression floor — flat build+join >= 3x the object
tree at n = 50k per side — but only when the machine has >= 4 CPUs
(``os.cpu_count()``); on smaller boxes the measured numbers are still
recorded, annotated as ungated.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.datasets import make_clustered, make_uniform
from repro.perf import FlatTreeCache
from repro.rtree import bulk_load_str, flat_join_count, flat_load_str, rtree_join_count
from repro.sampling import SamplingJoinEstimator

#: Regression floor: at n >= 50k per side the flat engine's build+join
#: must be at least this much faster than the object tree.  Gated on the
#: machine actually having >= 4 CPUs.
SPEEDUP_FLOOR = 3.0
FLOOR_SIZE = 50_000
FLOOR_CPUS = 4


def _make_pair(n: int):
    a = make_uniform(n, seed=401, name="A").rects
    b = make_clustered(n, seed=402, name="B").rects
    return a, b


def bench_kernel(sizes, repeats) -> list[dict]:
    rows = []
    for n in sizes:
        a, b = _make_pair(n)
        obj_build = obj_join = flat_build = flat_join = float("inf")
        obj_count = flat_count = -1
        for _ in range(repeats):
            t0 = time.perf_counter()
            ta, tb = bulk_load_str(a), bulk_load_str(b)
            t1 = time.perf_counter()
            obj_count = rtree_join_count(ta, tb)
            t2 = time.perf_counter()
            obj_build = min(obj_build, t1 - t0)
            obj_join = min(obj_join, t2 - t1)

            t0 = time.perf_counter()
            fa, fb = flat_load_str(a), flat_load_str(b)
            t1 = time.perf_counter()
            flat_count = flat_join_count(fa, fb)
            t2 = time.perf_counter()
            flat_build = min(flat_build, t1 - t0)
            flat_join = min(flat_join, t2 - t1)
        if flat_count != obj_count:
            raise AssertionError(
                f"flat count {flat_count} != object count {obj_count} at n={n}"
            )
        obj_total = obj_build + obj_join
        flat_total = flat_build + flat_join
        speedup = obj_total / flat_total if flat_total > 0 else float("inf")
        rows.append(
            {
                "n_per_side": n,
                "count": obj_count,
                "object_build_seconds": obj_build,
                "object_join_seconds": obj_join,
                "object_total_seconds": obj_total,
                "flat_build_seconds": flat_build,
                "flat_join_seconds": flat_join,
                "flat_total_seconds": flat_total,
                "speedup": speedup,
            }
        )
        print(
            f"  n={n}: object {obj_build:.3f}+{obj_join:.3f}={obj_total:.3f} s"
            f"  flat {flat_build:.3f}+{flat_join:.3f}={flat_total:.3f} s"
            f"  -> {speedup:5.2f}x  ({obj_count} pairs)"
        )
    return rows


def bench_estimator(n: int, repeats: int) -> dict:
    ds1 = make_uniform(n, seed=403, name="S1")
    ds2 = make_clustered(n, seed=404, name="S2")
    flat_est = SamplingJoinEstimator("rs", 0.3, 0.3, seed=61, join_method="flat")
    ref_est = SamplingJoinEstimator("rs", 0.3, 0.3, seed=61, join_method="rtree")
    flat_s = ref_s = float("inf")
    flat_v = ref_v = float("nan")
    for _ in range(repeats):
        t0 = time.perf_counter()
        ref_v = ref_est.estimate(ds1, ds2)
        ref_s = min(ref_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        flat_v = flat_est.estimate(ds1, ds2)
        flat_s = min(flat_s, time.perf_counter() - t0)
    identical = flat_v == ref_v
    speedup = ref_s / flat_s if flat_s > 0 else float("inf")
    print(
        f"  estimator n={n}: rtree {ref_s:.3f} s  flat {flat_s:.3f} s"
        f"  -> {speedup:5.2f}x  identical={identical}"
    )
    return {
        "n_per_side": n,
        "method": "rs",
        "rtree_seconds": ref_s,
        "flat_seconds": flat_s,
        "speedup": speedup,
        "identical": identical,
    }


def bench_cache(n: int) -> dict:
    ds1 = make_uniform(n, seed=405, name="C1")
    ds2 = make_clustered(n, seed=406, name="C2")
    cache = FlatTreeCache()
    est = SamplingJoinEstimator("rs", 0.4, 0.4, seed=62, tree_cache=cache)
    t0 = time.perf_counter()
    cold_v = est.estimate(ds1, ds2)
    cold_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm_v = est.estimate(ds1, ds2)
    warm_s = time.perf_counter() - t0
    identical = cold_v == warm_v
    print(
        f"  cache n={n}: cold {cold_s:.3f} s  warm {warm_s:.3f} s"
        f"  builds={cache.stats.builds} hits={cache.stats.hits}"
        f"  identical={identical}"
    )
    return {
        "n_per_side": n,
        "cold_seconds": cold_s,
        "warm_seconds": warm_s,
        "builds": cache.stats.builds,
        "hits": cache.stats.hits,
        "identical": identical,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small sizes + bit-identity assertions; the CI smoke configuration",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_sampling.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    cpus = os.cpu_count() or 1
    if args.quick:
        sizes = [8_000]
        repeats = 1
        est_n = 6_000
        cache_n = 6_000
    else:
        sizes = [20_000, FLOOR_SIZE]
        repeats = 3
        est_n = 30_000
        cache_n = 30_000

    print(f"machine: {cpus} cpus; sizes {sizes}; repeats {repeats}")
    print("kernel, flat SoA vs object tree (build + join):")
    kernel_rows = bench_kernel(sizes, repeats)
    print("estimator, join_method flat vs rtree:")
    est_row = bench_estimator(est_n, repeats)
    print("tree cache, cold vs warm:")
    cache_row = bench_cache(cache_n)

    floor_gated = cpus >= FLOOR_CPUS and not args.quick
    report = {
        "config": {
            "quick": bool(args.quick),
            "cpus": cpus,
            "sizes": sizes,
            "repeats": repeats,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "floor": {
                "speedup": SPEEDUP_FLOOR,
                "n_per_side": FLOOR_SIZE,
                "gated": floor_gated,
            },
        },
        "notes": (
            "Every flat timing is recorded only after its count matched the"
            " object-tree engine in-process. The speedup floor (flat"
            f" build+join >= {SPEEDUP_FLOOR}x the object tree at"
            f" n={FLOOR_SIZE}) is asserted only on machines with >="
            f" {FLOOR_CPUS} cpus and never under --quick; config.floor.gated"
            " records whether this run enforced it."
        ),
        "kernel": kernel_rows,
        "estimator": est_row,
        "cache": cache_row,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    failures = []
    if not est_row["identical"]:
        failures.append("flat estimator result differs from the object engine")
    if not cache_row["identical"]:
        failures.append("warm-cache estimate differs from the cold estimate")
    if floor_gated:
        slow = [
            r
            for r in kernel_rows
            if r["n_per_side"] >= FLOOR_SIZE and r["speedup"] < SPEEDUP_FLOOR
        ]
        if slow:
            failures.append(
                f"flat speedup below {SPEEDUP_FLOOR}x floor: "
                + ", ".join(f"{r['speedup']:.2f}x at n={r['n_per_side']}" for r in slow)
            )
    if failures:
        print("BENCH FAILURES:\n  " + "\n  ".join(failures))
        return 1
    print(
        "all flat-engine claims hold"
        + ("" if floor_gated else " (speedup floor ungated: <4 cpus or --quick)")
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
