"""SARIF 2.1.0 output for CI code-scanning upload.

One run, one driver (``repro.lint``), rule metadata for every per-file
and flow rule, one result per diagnostic.  Paths are emitted as given to
the engine (repo-relative in CI), which is what
``github/codeql-action/upload-sarif`` expects for PR annotations.
"""

from __future__ import annotations

from typing import Any

from .engine import LintReport
from .flow.rules import FLOW_RULES
from .rules import PARSE_ERROR_RULE, RULES

__all__ = ["SARIF_VERSION", "to_sarif"]

SARIF_VERSION = "2.1.0"
_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def _rule_catalog() -> list[dict[str, Any]]:
    parse_id, parse_name = PARSE_ERROR_RULE
    entries = [(rule.id, rule.name, rule.summary)
               for rule in (*RULES.values(), *FLOW_RULES.values())]
    entries.append((parse_id, parse_name, "file does not parse"))
    return [
        {"id": rule_id, "name": name, "shortDescription": {"text": summary}}
        for rule_id, name, summary in entries
    ]


def to_sarif(report: LintReport) -> dict[str, Any]:
    """The SARIF document for one lint run, as a JSON-ready dict."""
    results = [
        {
            "ruleId": diag.rule,
            "level": "error",
            "message": {"text": f"[{diag.name}] {diag.message}"},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": diag.path.replace("\\", "/")},
                        "region": {
                            "startLine": diag.line,
                            "startColumn": diag.col,
                        },
                    }
                }
            ],
        }
        for diag in report.diagnostics
    ]
    return {
        "$schema": _SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro.lint",
                        "informationUri": "https://example.invalid/repro",
                        "rules": _rule_catalog(),
                    }
                },
                "results": results,
            }
        ],
    }
