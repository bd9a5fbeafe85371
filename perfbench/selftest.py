"""The benchmark's own tests.

Usage, from the root of a checkout (takes about a minute)::

    python3 perfbench/selftest.py

Checks that

1. ``BENCHMARK.json`` lists exactly the gated workloads and the metrics
   defined here, with the same units, directions and bounds;
2. two runs of one seed repeat every layer counter (cache, memo,
   batcher, store) and op count exactly, and answer every operation at
   full quality (``ok_frac`` and ``full_frac`` are 1.0);
3. a second seed changes the request order but not the op counts;
4. in a directory holding only ``BENCHMARK.json`` and this directory,
   ``run.py`` exits non-zero without printing a result.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from metrics import END_TO_END, PER_LAYER
from run import ROOT, SRC, WORKDIR, run_workload

#: Small runs: enough operations to exercise every path, fast enough to
#: run all four workloads three times.
OPS = {"serve-hot": 2000, "serve-miss": 120, "plan": 200, "ingest": 200}


def check_manifest() -> list[str]:
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    gated = [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values() if w.gated]
    if spec["workloads"] != gated:
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for key, metrics in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        want = [{"name": m.name, "unit": m.unit, "better": m.better}
                | ({"bound": m.bound} if key == "end_to_end" else {}) for m in metrics]
        if spec[key] != want:
            problems.append(f"BENCHMARK.json {key} differs from metrics.py")
    return problems


def check_determinism(base: dict) -> list[str]:
    import workloads

    problems = []
    for name, ops in OPS.items():
        first = run_workload(name, 7, 0, False, base, ops_count=ops)
        again = run_workload(name, 7, 0, False, base, ops_count=ops)
        other = run_workload(name, 8, 0, False, base, ops_count=ops)
        if first["counters"] != again["counters"]:
            changed = sorted(k for k in first["counters"]
                             if first["counters"][k] != again["counters"].get(k))
            problems.append(f"{name}: counters differ between runs of one seed: {changed}")
        for record in (first, again, other):
            e2e = record["end_to_end"]
            if not record["correct"]:
                problems.append(f"{name}: seed {record['seed']} failed its checks")
            if e2e["ok_frac"] != 1.0 or e2e["full_frac"] != 1.0:
                problems.append(f"{name}: seed {record['seed']} ok/full {e2e['ok_frac']}"
                                f"/{e2e['full_frac']}")
        counts = [(r["attempted"], r["reads"]) for r in (first, again, other)]
        if len(set(counts)) != 1:
            problems.append(f"{name}: op counts differ across seeds: {counts}")
        workload = workloads.WORKLOADS[name](base)
        if repr(workload.operations(7, ops)) == repr(workload.operations(8, ops)):
            problems.append(f"{name}: a second seed gives the same request order")
        print(f"  {name}: counters repeat, {counts[0][0]} ops per run", flush=True)
    return problems


def check_without_program() -> list[str]:
    """``run.py`` in a bare copy of the benchmark must refuse to run."""
    bare = WORKDIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "plan", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    problems = []
    if done.returncode == 0:
        problems.append("run.py succeeded without the program's source")
    if done.stdout.strip():
        problems.append(f"run.py printed a result without the program: {done.stdout!r}")
    return problems


def main() -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    problems = check_manifest()
    problems += check_without_program()
    problems += check_determinism(workloads.load_datasets())
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
