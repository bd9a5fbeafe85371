"""Run benchmark workloads and print their metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-hot --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --out results/a.jsonl

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the
workload twice, untraced and then with spans around each layer's
public calls, and reports the per-layer metrics plus the tracing
overhead.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it are a readable report.  The exit code is 1 when any answer fails
its correctness check and 2 when the program's source is missing.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import platform
import resource
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 9

#: Scratch directory for the artifact store, inside the checkout.
WORKDIR = ROOT / ".perfbench"

#: Publish protocol of the ``ArtifactCatalog`` the ingest store uses.
FLUSH_POLICY = (
    "ArtifactCatalog default: stage in tmp/, fsync each array and the "
    "manifest, rename into objects/, fsync the directory"
)


@dataclass
class Phase:
    """One set-up plus timed loop, with what was read off it."""

    tally: Any
    setups: list[float]
    counters: dict[str, float]
    rss_mb: float
    stats_mb: float
    resident_mb: float
    memo_entries: int
    edited_bytes: int
    answers: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    exact: dict = field(default_factory=dict)
    regret_pct: "float | None" = None
    store_root: str = ""


async def run_phase(
    workload: Any, ops: list[Any], *, repeats: int, tracer: Any, workdir: Path, check: bool
) -> Phase:
    """Set up ``repeats`` times, run the timed loop on the last set-up,
    then (with ``check``) verify the answers and run the oracle."""
    import workloads

    setups: list[float] = []
    state = None
    for _ in range(repeats):
        if state is not None:
            await state.close()
        catalog = workloads.fresh_catalog(workload.base, copy=workload.mutates)
        gc.collect()
        started = perf_counter()
        state = await workload.setup(catalog, workdir)
        setups.append(perf_counter() - started)
    assert state is not None
    try:
        before = workload.counters(state)
        gc.collect()
        if tracer is not None:
            tracer.install(workloads)
        try:
            tally = await workload.timed(state, ops)
        finally:
            if tracer is not None:
                tracer.uninstall()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        after = workload.counters(state)
        memo = state.server.memo if state.server is not None else None
        phase = Phase(
            tally=tally,
            setups=setups,
            counters={name: value - before.get(name, 0) for name, value in after.items()},
            rss_mb=rss_mb,
            stats_mb=workload.stats_bytes(state) / 2**20,
            resident_mb=state.cache.current_bytes / 2**20,
            memo_entries=len(memo) if memo is not None else 0,
            edited_bytes=sum(32 * op.idx.size for op in ops if isinstance(op, workloads.Write)),
            store_root=(
                str(Path(state.store.root).relative_to(ROOT)) if state.store is not None else ""
            ),
        )
        if check:
            phase.answers = await workload.final_answers(state, tally)
            phase.problems = await workload.check(state, tally, phase.answers)
            phase.exact = workloads.exact_selectivities(state.catalog)
            if isinstance(workload, workloads.Plan):
                phase.regret_pct = workload.regret_pct(state, tally, phase.exact)
        return phase
    finally:
        await state.close()


def end_to_end(phase: Phase) -> dict[str, float]:
    """Every end-to-end metric of one untraced phase."""
    import workloads
    from metrics import median, percentile

    tally = phase.tally
    reads = list(tally.read_ns)
    errors = sorted(
        abs(value - phase.exact[workloads._sorted_pair(a, b)])
        / phase.exact[workloads._sorted_pair(a, b)] * 100.0
        for (a, b, _, _), value in phase.answers.items()
    )
    out = {
        "setup_s": median(phase.setups),
        "op_p50_ms": percentile(reads, 50.0) / 1e6,
        "op_p99_ms": percentile(reads, 99.0) / 1e6,
        # The client's own write time is not read time: ingest's fsyncs
        # show in write_p*_ms, not here.
        "ops_per_s": len(reads) / (tally.wall_s - sum(tally.write_ns) / 1e9),
        "ok_frac": tally.ok / tally.attempted,
        "full_frac": tally.full / tally.attempted,
        "rel_err_p50_pct": percentile(errors, 50.0),
        "rel_err_p95_pct": percentile(errors, 95.0),
        "rss_peak_mb": phase.rss_mb,
        "stats_mb": phase.stats_mb,
    }
    if phase.regret_pct is not None:
        out["plan_regret_pct"] = phase.regret_pct
    if tally.write_ns:
        writes = list(tally.write_ns)
        out["write_p50_ms"] = percentile(writes, 50.0) / 1e6
        out["write_p95_ms"] = percentile(writes, 95.0) / 1e6
    return out


def per_layer(phase: Phase, tracer: Any, untraced_p50_ms: float) -> dict[str, float]:
    """Every per-layer metric of one traced phase."""
    from metrics import percentile

    d = phase.counters
    ms = lambda name, **kw: tracer.median_ns(name, **kw) / 1e6  # noqa: E731
    us = lambda name, **kw: tracer.median_ns(name, **kw) / 1e3  # noqa: E731

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    traced_p50 = percentile(list(phase.tally.read_ns), 50.0) / 1e6
    return {
        "serve.submit_self_us": us("serve.submit", self_time=True),
        "serve.fast_frac": share(d.get("memo.fast_hits", 0), tracer.count("serve.submit")),
        "serve.batch_wait_ms": ms("serve.batch_wait"),
        "serve.batch_size": share(d.get("batcher.queries", 0), d.get("batcher.batches", 0)),
        "serve.shed": float(phase.tally.shed),
        "serve.degraded": float(phase.tally.degraded),
        "memo.hit_frac": share(d.get("memo.hits", 0), d.get("memo.hits", 0) + d.get("memo.misses", 0)),
        "memo.get_us": us("memo.get"),
        "memo.entries": float(phase.memo_entries),
        "fingerprint.folds": float(tracer.count("fingerprint.fold")),
        "fingerprint.fold_ms": ms("fingerprint.fold"),
        "cache.hit_frac": share(d["cache.hits"], d["cache.hits"] + d["cache.misses"]),
        "cache.builds": float(d["cache.builds"]),
        "cache.derivations": float(d["cache.derivations"]),
        "cache.evictions": float(d["cache.evictions"]),
        "cache.resolve_ms.l1": ms("cache.resolve.l1"),
        "cache.resolve_ms.derived": ms("cache.resolve.derived"),
        "cache.resolve_ms.store": ms("cache.resolve.store"),
        "cache.resolve_ms.build": ms("cache.resolve.build"),
        "cache.resident_mb": phase.resident_mb,
        "batch.call_ms": ms("batch.estimate_many"),
        "batch.builds_per_query": share(d["cache.builds"], d.get("batcher.queries", 0)),
        "hist.build_ms.gh": ms("hist.build.gh"),
        "hist.build_ms.ph": ms("hist.build.ph"),
        "hist.combine_us": us("hist.combine"),
        "hist.fused_pairs_us": us("hist.fused_pairs"),
        "hist.fused_matrix_us": us("hist.fused_matrix"),
        "hist.apply_updates_ms": ms("hist.apply_updates", self_time=True),
        "store.load_ms": ms("store.load"),
        "store.publish_ms": ms("store.publish"),
        "store.invalidate_ms": ms("store.invalidate"),
        "store.hit_frac": share(
            d.get("store.hits", 0), d.get("store.hits", 0) + d.get("store.misses", 0)
        ),
        "store.write_amp": share(tracer.published_bytes, phase.edited_bytes),
        "core.prepare_ms": ms("core.prepare"),
        "core.matrix_self_ms": ms("core.matrix", self_time=True),
        "core.optimizer_ms": ms("core.optimizer"),
        "trace.overhead_pct": (traced_p50 / untraced_p50_ms - 1.0) * 100.0
        if untraced_p50_ms else 0.0,
    }


def environment() -> dict[str, Any]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, base: Any, *, ops_count: "int | None" = None
) -> dict[str, Any]:
    """One workload, untraced (and traced with ``trace``); the full record."""
    import workloads
    from metrics import beyond
    from spans import Tracer

    workload = workloads.WORKLOADS[name](base)
    count = ops_count if ops_count is not None else workload.op_count(seconds)
    ops = workload.operations(seed, count)
    workdir = WORKDIR / f"run-{os.getpid()}"
    try:
        untraced = asyncio.run(run_phase(
            workload, ops, repeats=SETUP_REPEATS, tracer=None, workdir=workdir, check=True
        ))
        record: dict[str, Any] = {
            "workload": name,
            "why": workload.why,
            "seed": seed,
            "seconds": seconds,
            "ops": len(ops),
            "correct": not untraced.problems and not untraced.tally.errors,
            "attempted": untraced.tally.attempted,
            "failed": untraced.tally.attempted - untraced.tally.ok,
            "problems": untraced.problems[:10],
            "errors": untraced.tally.errors,
            "reads": len(untraced.tally.read_ns),
            "p99_samples_beyond": beyond(len(untraced.tally.read_ns), 99.0),
            "wall_s": untraced.tally.wall_s,
            "setups_s": untraced.setups,
            "counters": untraced.counters,
            "end_to_end": end_to_end(untraced),
            "env": environment(),
        }
        if untraced.store_root:
            record["store"] = {"root": untraced.store_root, "flush": FLUSH_POLICY}
        if trace:
            tracer = Tracer()
            traced = asyncio.run(run_phase(
                workload, ops, repeats=1, tracer=tracer, workdir=workdir, check=False
            ))
            record["per_layer"] = per_layer(
                traced, tracer, record["end_to_end"]["op_p50_ms"]
            )
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORKDIR.is_dir() and not any(WORKDIR.iterdir()):
            WORKDIR.rmdir()


def report(record: dict[str, Any]) -> list[str]:
    """The readable lines printed above the JSON result."""
    from metrics import ALL

    lines = [
        f"== {record['workload']}  seed={record['seed']}  ops={record['ops']}  "
        f"reads={record['reads']}  wall={record['wall_s']:.2f}s  "
        f"correct={record['correct']}",
        f"   why: {record['why']}",
    ]
    for section in ("end_to_end", "per_layer"):
        for key, value in record.get(section, {}).items():
            lines.append(f"   {key:<26} {value:>14.6g} {ALL[key].unit}")
    lines.append("   counters: " + json.dumps(record["counters"], sort_keys=True))
    if "store" in record:
        lines.append(f"   store: {record['store']['root']} ({record['store']['flush']})")
    if record["p99_samples_beyond"] < 10:
        lines.append(f"   warning: only {record['p99_samples_beyond']} reads beyond p99")
    lines += [f"   MISMATCH: {problem}" for problem in record["problems"]]
    lines += [f"   FAILED: {error}" for error in record["errors"]]
    lines.append("   env: " + json.dumps(record["env"], sort_keys=True))
    return lines


def result_line(records: list[dict[str, Any]], trace: bool) -> dict[str, Any]:
    """The final JSON object: the ``BENCHMARK.json`` metrics of one
    workload, or of every workload under ``<workload>/<metric>`` names."""
    from metrics import ALL, END_TO_END, PER_LAYER

    wanted = PER_LAYER if trace else END_TO_END
    metrics: dict[str, Any] = {}
    for record in records:
        source = record["per_layer"] if trace else record["end_to_end"]
        prefix = "" if len(records) == 1 else f"{record['workload']}/"
        for metric in wanted:
            metrics[prefix + metric.name] = {
                "value": source[metric.name], "unit": ALL[metric.name].unit,
            }
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("serve-hot", "serve-miss", "plan", "ingest", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="sets the operation count: seconds x the workload's nominal rate")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None,
                        help="append each workload's full record to this JSON-lines file")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    base = workloads.load_datasets()
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace), base)
        records.append(record)
        print("\n".join(report(record)), flush=True)
        if args.out is not None:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            with args.out.open("a") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
    result = result_line(records, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
