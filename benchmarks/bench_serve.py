"""Serving front-door benchmark: sustained q/s and tail latency under
healthy, overloaded, and fault-injected regimes.

Emits ``BENCH_serve.json`` with one regime entry per scenario, driven by
the open-loop generator in :mod:`repro.serve.loadgen` (open loop =
arrivals keep coming at the offered rate no matter how slow the server
gets, so overload shows up as sheds and tail latency instead of being
hidden by a throttled client):

* **healthy** — offered load well inside capacity, warm cache: almost
  everything answers at the ``full`` rung, zero errors;
* **overloaded** — a deliberately tiny admission queue and a disabled
  cache under ~10× capacity: the bench *asserts* bounded queue depth
  (high water <= max_depth), explicit typed sheds (> 0), no unclassified
  errors, and a bounded answered-tail (p99 under a generous cap —
  refusing early is what keeps the tail from collapsing);
* **faulted** — the micro-batcher's runner raises on its first
  :data:`INJECTED_FAULTS` batches, then delegates to the server's
  default runner: the bench asserts the faults were injected and hit
  the batcher, service degraded honestly meanwhile (every non-``full``
  answer is marked degraded), full-quality service resumed afterwards
  on a pair the load never asked for, and nothing errored.

Run directly::

    PYTHONPATH=src python benchmarks/bench_serve.py            # full
    PYTHONPATH=src python benchmarks/bench_serve.py --quick    # CI smoke

Both modes validate the emitted payload against
:func:`repro.serve.loadgen.validate_bench_report` — the same schema gate
CI applies — and exit non-zero on any failed claim.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import platform
import sys
import threading
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.datasets import SpatialDataset
from repro.geometry import Rect, RectArray
from repro.serve import (
    EstimationServer,
    ServeRequest,
    ServerConfig,
    run_load,
    validate_bench_report,
)

#: Answered-tail cap for the overloaded regime (milliseconds).  Generous
#: on purpose: the claim is "no latency collapse", not a latency SLO.
OVERLOAD_P99_CAP_MS = 2000.0

#: Healthy-regime median cap (milliseconds), full mode only: with the
#: tier-0 memo fast lane answering warm repeats on the event loop, the
#: typical request must be sub-millisecond.
HEALTHY_P50_CAP_MS = 1.0

#: Runner calls (fused batches and solo retries alike) the faulted
#: regime fails before the runner heals.
INJECTED_FAULTS = 4


def make_catalog(n: int, seed: int = 20260808) -> dict[str, SpatialDataset]:
    """Deterministic synthetic catalog on the unit extent."""
    rng = np.random.default_rng(seed)
    catalog = {}
    for name in ("roads", "rivers", "parks", "rail"):
        w = rng.uniform(0, 0.03, n)
        h = rng.uniform(0, 0.03, n)
        x0 = rng.uniform(0, 1, n) * (1 - w)
        y0 = rng.uniform(0, 1, n) * (1 - h)
        catalog[name] = SpatialDataset(
            name, RectArray(x0, y0, x0 + w, y0 + h), Rect.unit()
        )
    return catalog


def templates(level: int) -> list[ServeRequest]:
    return [
        ServeRequest("roads", "rivers", level=level),
        ServeRequest("roads", "parks", level=level),
        ServeRequest("rivers", "rail", level=level),
        ServeRequest("parks", "rail", level=level),
    ]


class FailFirstBatches:
    """Batch runner that raises on its first ``n`` calls, then delegates."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.injected = 0
        self.delegate = None  # set once the server exists
        self._lock = threading.Lock()

    def __call__(self, queries, budget_s):
        with self._lock:
            fail = self.injected < self.n
            if fail:
                self.injected += 1
        if fail:
            raise OSError(f"injected batch fault {self.injected}/{self.n}")
        return self.delegate(queries, budget_s)


def bench_healthy(catalog, *, rate_qps: float, duration_s: float) -> dict:
    server = EstimationServer(
        catalog, ServerConfig(max_depth=64, max_delay_s=0.002)
    )

    async def go():
        async with server:
            return await run_load(
                server, templates(7), rate_qps=rate_qps, duration_s=duration_s
            )

    report = asyncio.run(go()).snapshot()
    report["server"] = server.stats()
    return report


def bench_overloaded(catalog, *, rate_qps: float, duration_s: float) -> dict:
    # An 8-deep queue, a 1-byte cache budget, and no tier-0 memo: every
    # request is a fresh build, and the offered rate is far beyond
    # capacity.  (With the memo left on, the fast lane would absorb the
    # repeated templates and the overload would never materialize — this
    # regime stresses the admission machinery, not the warm path.)
    server = EstimationServer(
        catalog,
        ServerConfig(max_depth=8, cache_bytes=1, max_delay_s=0.002, memo_entries=0),
    )

    async def go():
        async with server:
            return await run_load(
                server, templates(9), rate_qps=rate_qps, duration_s=duration_s
            )

    report = asyncio.run(go()).snapshot()
    report["server"] = server.stats()
    report["queue_high_water"] = server.admission.stats.high_water
    report["max_depth"] = server.admission.max_depth
    return report


def bench_faulted(catalog, *, rate_qps: float, duration_s: float) -> dict:
    runner = FailFirstBatches(INJECTED_FAULTS)
    server = EstimationServer(
        catalog, ServerConfig(max_depth=64, max_delay_s=0.002), batch_runner=runner
    )
    runner.delegate = server._default_runner

    async def go():
        async with server:
            load = await run_load(
                server, templates(6), rate_qps=rate_qps, duration_s=duration_s
            )
            # Recovery probe on a pair the load never sent, so the memo
            # cannot answer it: the batcher must serve the full rung.
            probe = await server.submit(ServeRequest("roads", "rail", level=6))
            return load, probe.provenance.rung == "full"

    load, recovered = asyncio.run(go())
    report = load.snapshot()
    report["server"] = server.stats()
    report["injected_faults"] = runner.injected
    report["recovered_full_rung"] = recovered
    return report


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: tiny datasets, ~5s of load total, schema-validated",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_serve.json",
        help="output JSON path",
    )
    args = parser.parse_args(argv)

    if args.quick:
        catalog = make_catalog(300)
        healthy_kw = {"rate_qps": 50.0, "duration_s": 1.0}
        overload_kw = {"rate_qps": 500.0, "duration_s": 1.0}
        faulted_kw = {"rate_qps": 20.0, "duration_s": 1.0}
    else:
        catalog = make_catalog(2000)
        healthy_kw = {"rate_qps": 100.0, "duration_s": 5.0}
        overload_kw = {"rate_qps": 1000.0, "duration_s": 3.0}
        faulted_kw = {"rate_qps": 25.0, "duration_s": 3.0}

    print("healthy regime:")
    healthy = bench_healthy(catalog, **healthy_kw)
    print(
        f"  {healthy['achieved_qps']:.0f} q/s answered, "
        f"p50 {healthy['latency_ms']['p50']:.3f} ms, "
        f"p99 {healthy['latency_ms']['p99']:.2f} ms, "
        f"{healthy['vias'].get('memo', 0)} memo fast-lane hits, "
        f"{healthy['shed']} shed, {healthy['errors']} errors"
    )
    print("overloaded regime:")
    overloaded = bench_overloaded(catalog, **overload_kw)
    print(
        f"  offered {overloaded['offered_qps']:.0f} q/s -> "
        f"{overloaded['ok']} answered / {overloaded['shed']} shed, "
        f"queue high water {overloaded['queue_high_water']}/"
        f"{overloaded['max_depth']}, p99 {overloaded['latency_ms']['p99']:.2f} ms"
    )
    print("faulted regime:")
    faulted = bench_faulted(catalog, **faulted_kw)
    print(
        f"  {faulted['ok']} answered ({faulted['degraded']} degraded), "
        f"{faulted['injected_faults']} injected batch faults, "
        f"recovered={faulted['recovered_full_rung']}"
    )

    report = {
        "bench": "serve",
        "config": {
            "quick": bool(args.quick),
            "datasets": {name: len(ds) for name, ds in catalog.items()},
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "notes": (
            "Open-loop load generation (arrivals are not throttled by server"
            " slowness). Overload health = bounded queue + typed sheds + no"
            " latency collapse, NOT high throughput. The faulted regime fails"
            f" the batch runner's first {INJECTED_FAULTS} calls; the ladder"
            " must answer degraded meanwhile and return to the full rung."
        ),
        "regimes": {
            "healthy": healthy,
            "overloaded": overloaded,
            "faulted": faulted,
        },
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")

    failures = []
    problems = validate_bench_report(report)
    if problems:
        failures.extend(f"schema: {p}" for p in problems)
    if healthy["errors"]:
        failures.append(f"healthy regime had {healthy['errors']} errors")
    if healthy["vias"].get("memo", 0) <= 0:
        failures.append(
            "healthy regime shows no memo fast-lane answers in provenance"
        )
    if healthy["server"]["memo"]["fast_hits"] <= 0:
        failures.append("healthy server stats report zero memo fast hits")
    if not args.quick and healthy["latency_ms"]["p50"] > HEALTHY_P50_CAP_MS:
        failures.append(
            f"healthy p50 {healthy['latency_ms']['p50']:.3f} ms exceeds the "
            f"{HEALTHY_P50_CAP_MS:g} ms warm-path cap"
        )
    if overloaded["shed"] <= 0:
        failures.append("overloaded regime produced no explicit sheds")
    if overloaded["errors"]:
        failures.append(f"overloaded regime had {overloaded['errors']} errors")
    if overloaded["queue_high_water"] > overloaded["max_depth"]:
        failures.append(
            f"queue depth {overloaded['queue_high_water']} exceeded the bound "
            f"{overloaded['max_depth']}"
        )
    if overloaded["ok"] and overloaded["latency_ms"]["p99"] > OVERLOAD_P99_CAP_MS:
        failures.append(
            f"overloaded p99 {overloaded['latency_ms']['p99']:.0f} ms blew the "
            f"{OVERLOAD_P99_CAP_MS:.0f} ms no-collapse cap"
        )
    if faulted["server"]["batcher"]["batch_failures"] < 1:
        failures.append("faulted regime's injected faults never failed a batch")
    if faulted["degraded"] < 1:
        failures.append("faulted regime produced no degraded answers")
    if faulted["degraded"] != faulted["ok"] - faulted["rungs"].get("full", 0):
        failures.append(
            "faulted regime: degraded count disagrees with non-full answers"
        )
    if not faulted["recovered_full_rung"]:
        failures.append("faulted regime never recovered full-rung service")
    if faulted["errors"]:
        failures.append(f"faulted regime had {faulted['errors']} errors")

    if failures:
        print("BENCH FAILURES:\n  " + "\n  ".join(failures))
        return 1
    print("all serving claims hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
