"""``python -m repro.lint`` — the command-line gate.

Exit codes: 0 clean, 1 diagnostics found, 2 bad invocation.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from .engine import run_lint
from .flow.rules import FLOW_RULES
from .rules import RULES
from .sarif import to_sarif

__all__ = ["main"]

#: Version of the JSON output schema (bump on breaking changes).
JSON_SCHEMA_VERSION = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="AST-based invariant checker for the repro estimation stack.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--format",
        "-f",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--sarif",
        metavar="PATH",
        help="also write a SARIF 2.1.0 report to PATH (for CI upload)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--statistics",
        action="store_true",
        help="append a per-rule violation count (text format)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    names = {rule.id: rule.name for rule in (*RULES.values(), *FLOW_RULES.values())}
    if args.list_rules:
        for rule in (*RULES.values(), *FLOW_RULES.values()):
            print(f"{rule.id}  {rule.name:<22} {rule.summary}")
        return 0

    try:
        report = run_lint(args.paths)
    except FileNotFoundError as exc:
        print(f"repro.lint: error: {exc}", file=sys.stderr)
        return 2

    if args.sarif:
        sarif_path = Path(args.sarif)
        sarif_path.parent.mkdir(parents=True, exist_ok=True)
        sarif_path.write_text(
            json.dumps(to_sarif(report), indent=2, sort_keys=True),
            encoding="utf-8",
        )

    if args.format == "json":
        payload = {
            "version": JSON_SCHEMA_VERSION,
            "files_checked": report.files_checked,
            "clean": report.clean,
            "diagnostics": [diag.as_dict() for diag in report.diagnostics],
            "summary": report.counts_by_rule(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if report.clean else 1

    for diag in report.diagnostics:
        print(diag.format_text())
    if args.statistics and report.diagnostics:
        print()
        for rule_id, count in report.counts_by_rule().items():
            print(f"{rule_id} [{names.get(rule_id, 'parse-error')}]: {count}")
    if report.clean:
        print(f"repro.lint: {report.files_checked} files checked, no violations")
        return 0
    print(
        f"repro.lint: {report.files_checked} files checked, "
        f"{len(report.diagnostics)} violation(s)",
        file=sys.stderr,
    )
    return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
