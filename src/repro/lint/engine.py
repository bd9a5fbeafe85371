"""File collection and rule execution.

One pass over the tree: each file is read and parsed once, and that one
tree feeds both layers —

* **per-file rules** (R001, R003–R005, R007–R009, :mod:`repro.lint.rules`)
  check it on its own;
* its **flow summary** (:func:`~repro.lint.flow.graph.extract_summary`)
  joins every other project module's, and once all files are read the
  summaries are linked into one call graph for the interprocedural
  rules (R010–R012, R014, :mod:`repro.lint.flow`).
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

from .context import FileContext, ModuleIndex, module_name_for
from .diagnostics import Diagnostic
from .flow.graph import CallGraph, ModuleSummary, extract_summary
from .flow.rules import FLOW_RULES
from .rules import PARSE_ERROR_RULE, RULES
from .suppressions import SuppressionIndex

__all__ = ["LintReport", "iter_python_files", "lint_file", "run_lint"]

#: Directory names never descended into when walking a directory
#: argument: vendored/cache/VCS directories only, nothing a legitimate
#: source tree would use.
DEFAULT_EXCLUDED_DIRS = frozenset(
    {"__pycache__", ".git", ".hg", ".venv", "venv", "build", "dist",
     ".eggs", "node_modules"}
)

#: Specific directories (matched by trailing resolved-path components)
#: skipped by tree walks.  Only the lint test corpus — files with
#: intentional violations — lives here; a generic name like ``fixtures``
#: is deliberately NOT excluded, so future legitimate code in some other
#: ``fixtures/`` directory is still linted.  Passing a corpus file
#: *explicitly* always lints it.
EXCLUDED_PATH_SUFFIXES: tuple[tuple[str, ...], ...] = (
    ("tests", "lint", "fixtures"),
)


def _is_excluded_dir(dirpath: Path, name: str) -> bool:
    if name in DEFAULT_EXCLUDED_DIRS:
        return True
    parts = (dirpath / name).resolve().parts
    return any(
        parts[-len(suffix):] == suffix for suffix in EXCLUDED_PATH_SUFFIXES
    )


@dataclass
class LintReport:
    """Outcome of one lint run."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    files_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.diagnostics

    def counts_by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for diag in self.diagnostics:
            counts[diag.rule] = counts.get(diag.rule, 0) + 1
        return dict(sorted(counts.items()))


def iter_python_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    """Expand path arguments into ``.py`` files, deterministically ordered.

    Directories are walked recursively minus :data:`DEFAULT_EXCLUDED_DIRS`
    and the :data:`EXCLUDED_PATH_SUFFIXES` fixture corpus; explicit file
    arguments are yielded as-is (even inside excluded directories).
    Missing paths raise :class:`FileNotFoundError` so a typo'd CI
    invocation fails loudly instead of certifying nothing.
    """
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            resolved = path.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield path
        elif path.is_dir():
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if not _is_excluded_dir(Path(dirpath), d)
                )
                for filename in sorted(filenames):
                    if not filename.endswith(".py"):
                        continue
                    file = Path(dirpath) / filename
                    resolved = file.resolve()
                    if resolved not in seen:
                        seen.add(resolved)
                        yield file
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")


def _parse(path: Path, index: ModuleIndex) -> FileContext | Diagnostic:
    """The file's rule context, or its ``E001`` diagnostic when it cannot
    be read or parsed."""
    display = str(path)
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=display)
    except (OSError, SyntaxError, ValueError) as exc:
        rule_id, rule_name = PARSE_ERROR_RULE
        message = exc.msg if isinstance(exc, SyntaxError) else str(exc)
        return Diagnostic(
            rule=rule_id,
            name=rule_name,
            path=display,
            line=getattr(exc, "lineno", None) or 1,
            col=getattr(exc, "offset", None) or 1,
            message=f"file does not parse: {message}",
        )
    return FileContext(
        path=path.resolve(),
        display_path=display,
        source=source,
        tree=tree,
        module=module_name_for(path),
        suppressions=SuppressionIndex.from_source(source),
        index=index,
    )


def _check(ctx: FileContext) -> list[Diagnostic]:
    return [
        diag
        for rule in RULES.values()
        for diag in rule.check(ctx)
        if not ctx.suppressions.is_suppressed(diag.rule, diag.line)
    ]


def lint_file(path: str | Path) -> list[Diagnostic]:
    """Lint one file with the per-file rules; returns its
    (suppression-filtered) diagnostics.  Flow rules need the whole
    project and only run under :func:`run_lint`."""
    ctx = _parse(Path(path), ModuleIndex())
    if isinstance(ctx, Diagnostic):
        return [ctx]
    return sorted(_check(ctx), key=Diagnostic.sort_key)


def run_lint(paths: Sequence[str | Path]) -> LintReport:
    """Lint every python file under ``paths`` with every rule."""
    report = LintReport()
    index = ModuleIndex()  # share the cross-file cache across the run
    summaries: dict[str, ModuleSummary] = {}
    suppressions: dict[str, SuppressionIndex] = {}
    for path in iter_python_files(paths):
        report.files_checked += 1
        ctx = _parse(path, index)
        if isinstance(ctx, Diagnostic):
            report.diagnostics.append(ctx)
            continue
        report.diagnostics.extend(_check(ctx))
        if ctx.in_repro:
            summaries[ctx.module] = extract_summary(
                module=ctx.module,
                path=ctx.display_path,
                source=ctx.source,
                tree=ctx.tree,
                is_pkg=path.name == "__init__.py",
            )
            suppressions[ctx.display_path] = ctx.suppressions

    if summaries:
        graph = CallGraph(summaries)
        report.diagnostics.extend(
            diag
            for rule in FLOW_RULES.values()
            for diag in rule.check(graph)
            if not suppressions[diag.path].is_suppressed(diag.rule, diag.line)
        )
    report.diagnostics.sort(key=Diagnostic.sort_key)
    return report
