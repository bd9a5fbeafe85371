"""Approximate aggregate queries without running the join.

The paper's motivating example (Section 1): "finding the approximate
number of bridges in a given spatial extent may simply be satisfied by
doing a join selectivity estimation between the streets and rivers
datasets for that extent".

This example plays that scenario end to end with the library's intended
deployment shape:

1. offline, a :class:`~repro.StatisticsCatalog` builds one GH histogram
   file per dataset (roads, streams) through a
   :class:`~repro.HistogramCache` that persists them in an
   :class:`~repro.store.ArtifactCatalog` on disk;
2. online, "how many bridges?" is answered instantly from the two
   histogram files — no data access, no join;
3. the exact join is run once at the end to score the approximation.

Run:
    python examples/approximate_count.py [scale]
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

from repro import (
    GHEstimator,
    HistogramCache,
    StatisticsCatalog,
    join_count,
    make_paper_dataset,
)
from repro.store import ArtifactCatalog


def main() -> None:
    scale = float(sys.argv[1]) if len(sys.argv) > 1 else 50.0
    print("Scenario: count bridges = (road MBR) x (stream MBR) intersections.\n")

    roads = make_paper_dataset("CAR", scale=scale)     # road segments
    streams = make_paper_dataset("CAS", scale=scale)   # stream segments
    print(f"roads  : {len(roads):>8} MBRs")
    print(f"streams: {len(streams):>8} MBRs")

    with tempfile.TemporaryDirectory() as tmp:
        store = ArtifactCatalog(Path(tmp) / "stats")

        # -- offline: build and persist the histogram files -------------
        t0 = time.perf_counter()
        catalog = StatisticsCatalog(
            GHEstimator(level=7), cache=HistogramCache(store=store)
        )
        catalog.register(roads)
        catalog.register(streams)
        catalog.summary_for("CAR")
        catalog.summary_for("CAS")
        build_seconds = time.perf_counter() - t0
        files = [entry.name for entry in store.entries()]
        print(f"\n[offline] built histogram files in {build_seconds:.2f}s: {files}")

        # -- online: answer the aggregate from statistics alone ---------
        t0 = time.perf_counter()
        selectivity = catalog.estimate("CAR", "CAS")
        approx_bridges = selectivity * len(roads) * len(streams)
        estimate_seconds = time.perf_counter() - t0
        print(f"[online ] approx bridges = {approx_bridges:,.0f} "
              f"(selectivity {selectivity:.3e}) in {estimate_seconds * 1e3:.2f} ms")

    # -- ground truth ----------------------------------------------------
    t0 = time.perf_counter()
    exact = join_count(roads.rects, streams.rects)
    join_seconds = time.perf_counter() - t0
    print(f"[exact  ] bridges        = {exact:,} in {join_seconds:.2f}s")

    error = abs(approx_bridges - exact) / exact * 100 if exact else 0.0
    speedup = join_seconds / max(estimate_seconds, 1e-9)
    print(f"\nestimation error {error:.1f}%; answer served "
          f"{speedup:,.0f}x faster than the join")


if __name__ == "__main__":
    main()
