"""``python -m repro.lint`` — the command-line gate.

Exit codes: 0 clean, 1 diagnostics found, 2 bad invocation.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Sequence

from .engine import run_lint
from .flow.rules import FLOW_RULES
from .rules import RULES
from .sarif import to_sarif

__all__ = ["main"]

#: Version of the JSON output schema (bump on breaking changes).
JSON_SCHEMA_VERSION = 2


def _rule_list(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]


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
        "--select",
        type=_rule_list,
        metavar="R001,R010",
        help="run only these rule ids",
    )
    parser.add_argument(
        "--ignore",
        type=_rule_list,
        metavar="R003",
        help="skip these rule ids",
    )
    parser.add_argument(
        "--no-flow",
        action="store_true",
        help="skip the interprocedural layer (rules R010–R012, R014); this "
        "runs no checkpoint-coverage rule at all",
    )
    parser.add_argument(
        "--cache",
        metavar="PATH",
        help="incremental cache file (created on first run, reused after)",
    )
    parser.add_argument(
        "--changed-only",
        nargs="?",
        const="HEAD",
        metavar="BASE",
        help="analyze only files changed vs. the git BASE (default HEAD) "
        "plus their reverse import closure; flow summaries of unchanged "
        "files come from the cache",
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


def _git_changed_files(base: str) -> list[str]:
    """Paths changed vs. ``base`` plus untracked files (repo-relative)."""
    diff = subprocess.run(
        ["git", "diff", "--name-only", "-z", base, "--"],
        capture_output=True,
        text=True,
        check=True,
    )
    untracked = subprocess.run(
        ["git", "ls-files", "--others", "--exclude-standard", "-z"],
        capture_output=True,
        text=True,
        check=True,
    )
    names = [
        name
        for blob in (diff.stdout, untracked.stdout)
        for name in blob.split("\0")
        if name
    ]
    return [name for name in names if name.endswith(".py")]


def _rule_name(rule_id: str) -> str:
    if rule_id in RULES:
        return RULES[rule_id].name
    if rule_id in FLOW_RULES:
        return FLOW_RULES[rule_id].name
    return "parse-error"


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES.values():
            print(f"{rule.id}  {rule.name:<22} {rule.summary}")
        for flow_rule in FLOW_RULES.values():
            print(f"{flow_rule.id}  {flow_rule.name:<22} {flow_rule.summary}")
        return 0

    changed: list[str] | None = None
    if args.changed_only is not None:
        try:
            changed = _git_changed_files(args.changed_only)
        except (OSError, subprocess.CalledProcessError) as exc:
            print(f"repro.lint: error: git diff failed: {exc}", file=sys.stderr)
            return 2

    try:
        report = run_lint(
            args.paths,
            select=args.select,
            ignore=args.ignore,
            flow=not args.no_flow,
            cache=args.cache,
            changed=changed,
        )
    except (FileNotFoundError, ValueError) as exc:
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
            "stats": {
                "files_parsed": report.stats.files_parsed,
                "summaries_from_cache": report.stats.summaries_from_cache,
                "file_diags_from_cache": report.stats.file_diags_from_cache,
                "flow_from_cache": report.stats.flow_from_cache,
                "flow_modules": report.stats.flow_modules,
                "slice_files": report.stats.slice_files,
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if report.clean else 1

    for diag in report.diagnostics:
        print(diag.format_text())
    if args.statistics and report.diagnostics:
        print()
        for rule_id, count in report.counts_by_rule().items():
            print(f"{rule_id} [{_rule_name(rule_id)}]: {count}")
    if report.clean:
        suffix = " (changed slice)" if report.stats.slice_files is not None else ""
        print(
            f"repro.lint: {report.files_checked} files checked, "
            f"no violations{suffix}"
        )
        return 0
    print(
        f"repro.lint: {report.files_checked} files checked, "
        f"{len(report.diagnostics)} violation(s)",
        file=sys.stderr,
    )
    return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
