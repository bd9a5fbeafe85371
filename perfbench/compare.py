"""Compare two sets of benchmark results.

Usage, from the root of a checkout::

    python3 perfbench/compare.py BASE NEW

``BASE`` and ``NEW`` are JSON-lines files written by ``run.py --out``,
or directories holding such files.  For every workload and metric it
prints each side's median and quartiles across runs, then a verdict:

* an end-to-end metric whose ``NEW`` median is worse than the ``BASE``
  median by more than the metric's bound is a ``REGRESSION`` (counted
  in the exit code for the gated metrics of ``BENCHMARK.json``); when the
  ``BASE`` runs themselves spread wider than the bound the verdict is
  ``unresolved``, unless every ``NEW`` run is worse than every ``BASE``
  run (a regression) or better than every one;
* a per-layer metric (from ``--trace 1`` runs) ``moved`` when the
  medians differ by more than 5% and by more than either side's
  interquartile range, so a later change can show which layer moved;
* the layers' counters are ``changed`` when their quartiles differ at
  all: a fixed seed repeats them exactly, and over the same seeds on
  both sides any difference is a change in behaviour.

It also prints each side's environment: CPUs, load average, Python and
numpy versions.  The exit code is 1 when any regression is flagged.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Iterable

from metrics import ALL, END_TO_END, PER_LAYER, REPORTED, quartiles


GATED = {m.name for m in END_TO_END}


def load(path: Path) -> list[dict[str, Any]]:
    """Every record in a JSON-lines file, or in all such files of a directory."""
    files: Iterable[Path] = sorted(path.glob("*.jsonl")) if path.is_dir() else [path]
    records = []
    for file in files:
        for line in file.read_text().splitlines():
            if line.strip():
                records.append(json.loads(line))
    return records


def by_workload(records: list[dict[str, Any]], section: str) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: [value per run]}}`` for one record section."""
    out: dict[str, dict[str, list[float]]] = {}
    for record in records:
        values = out.setdefault(record["workload"], {})
        for name, value in record.get(section, {}).items():
            values.setdefault(name, []).append(float(value))
    return out


def worse_share(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    if base == 0:
        return 0.0 if new == base else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def verdict_end_to_end(name: str, base: list[float], new: list[float]) -> str:
    metric = ALL[name]
    b1, bm, b3 = quartiles(base)
    _, nm, _ = quartiles(new)
    worse = worse_share(bm, nm, metric.better)
    bound = metric.bound
    if bound is None:
        return f"{worse:+.1%} worse" if worse > 0 else f"{-worse:+.1%} better"
    spread = (b3 - b1) / abs(bm) if bm else 0.0
    if spread > bound:
        # The median cannot resolve a move of the bound's size: only a
        # complete separation of the two sides counts.
        shares = [worse_share(b, n, metric.better) for b in base for n in new]
        if all(share > 0 for share in shares):
            return f"REGRESSION {worse:+.1%}, every run worse"
        if all(share < 0 for share in shares):
            return f"better by {-worse:.1%}, every run better"
        return f"unresolved (base spread {spread:.1%} > bound {bound:.0%})"
    if worse > bound:
        return f"REGRESSION {worse:+.1%} > bound {bound:.0%}"
    if worse < -bound:
        return f"better by {-worse:.1%}"
    return f"same within {bound:.0%}"


def verdict_layer(base: list[float], new: list[float]) -> str:
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    diff = nm - bm
    relative = abs(diff) / abs(bm) if bm else (0.0 if diff == 0 else float("inf"))
    if relative > 0.05 and abs(diff) > max(b3 - b1, n3 - n1):
        return f"moved {'up' if diff > 0 else 'down'} {relative:.1%}"
    return ""


def environment(records: list[dict[str, Any]]) -> str:
    envs = [r.get("env", {}) for r in records]
    if not envs:
        return "no runs"
    loads = [env["loadavg"][0] for env in envs if env.get("loadavg")]
    first = envs[0]
    load = f"{min(loads):.2f}-{max(loads):.2f}" if loads else "?"
    return (
        f"{len(records)} runs, nproc={first.get('nproc')}, load1={load}, "
        f"python={first.get('python')}, numpy={first.get('numpy')}"
    )


def compare(base: list[dict[str, Any]], new: list[dict[str, Any]]) -> tuple[list[str], int]:
    """The report lines and the number of regressions."""
    lines = [f"base: {environment(base)}", f"new:  {environment(new)}"]
    regressions = 0
    sections = (
        ("end_to_end", [m.name for m in (*END_TO_END, *REPORTED)]),
        ("per_layer", [m.name for m in PER_LAYER]),
        ("counters", None),
    )
    for section, order in sections:
        base_runs, new_runs = by_workload(base, section), by_workload(new, section)
        for workload in sorted(set(base_runs) & set(new_runs)):
            b, n = base_runs[workload], new_runs[workload]
            names = [x for x in (order or sorted(b)) if x in b and x in n]
            names += [x for x in sorted(b) if x in n and x not in names]
            if not names:
                continue
            lines.append(f"\n== {workload} / {section}")
            lines.append(
                f"   {'metric':<26} {'base q1':>11} {'median':>11} {'q3':>11}"
                f" | {'new q1':>11} {'median':>11} {'q3':>11}  verdict"
            )
            for name in names:
                bq, nq = quartiles(b[name]), quartiles(n[name])
                if section == "counters":
                    verdict = "" if bq == nq else "changed"
                elif section == "end_to_end":
                    verdict = verdict_end_to_end(name, b[name], n[name])
                    regressions += verdict.startswith("REGRESSION") and name in GATED
                else:
                    verdict = verdict_layer(b[name], n[name])
                lines.append(
                    f"   {name:<26} {bq[0]:>11.5g} {bq[1]:>11.5g} {bq[2]:>11.5g}"
                    f" | {nq[0]:>11.5g} {nq[1]:>11.5g} {nq[2]:>11.5g}  {verdict}"
                )
    return lines, regressions


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    if not base or not new:
        print("error: both sides need at least one run record", file=sys.stderr)
        return 2
    lines, regressions = compare(base, new)
    print("\n".join(lines))
    print(f"\n{regressions} end-to-end regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
