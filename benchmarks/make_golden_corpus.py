#!/usr/bin/env python
"""Regenerate tests/accuracy/golden_corpus.json from scratch.

Run this ONLY after a deliberate algorithmic change (new estimator
weights, different dataset generators, ...) and review the diff: every
changed ``exact_count`` or widened ``max_error_pct`` needs a
justification in the PR.  Usage::

    PYTHONPATH=src python benchmarks/make_golden_corpus.py [--out PATH]
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.eval.golden import build_corpus

CORPUS_PATH = Path(__file__).resolve().parent.parent / "tests" / "accuracy" / "golden_corpus.json"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", type=Path, default=CORPUS_PATH,
        help=f"output path (default: {CORPUS_PATH})",
    )
    args = parser.parse_args()
    corpus = build_corpus()
    args.out.write_text(json.dumps(corpus, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    for name, entry in corpus["pairs"].items():
        print(f"  {name}: count={entry['exact_count']} sel={entry['selectivity']:.3e}")
        for pred_name, section in entry["predicates"].items():
            print(
                f"    {pred_name}: count={section['exact_count']} "
                f"sel={section['selectivity']:.3e}"
            )


if __name__ == "__main__":
    main()
