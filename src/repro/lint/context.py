"""Per-file lint context: parsed AST, package identity, module index.

Rule applicability is decided by *package identity*, not filesystem
layout: a file's dotted module name is recovered by walking up through
directories that carry an ``__init__.py``.  This makes the rules follow
the code wherever the package root lives — ``src/repro/...`` in the
repo, a site-packages checkout, or a test fixture tree that mirrors the
``repro`` package shape.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from .diagnostics import Diagnostic
from .suppressions import SuppressionIndex

__all__ = ["FileContext", "ModuleIndex", "module_name_for"]


def module_name_for(path: Path) -> str:
    """Dotted module name implied by the ``__init__.py`` chain above ``path``.

    Returns ``""`` for a file that is not part of any package (no
    ``__init__.py`` beside it).
    """
    path = path.resolve()
    parts: list[str] = [] if path.name == "__init__.py" else [path.stem]
    parent = path.parent
    while (parent / "__init__.py").is_file():
        parts.append(parent.name)
        parent = parent.parent
    if parts == [path.stem]:  # no package chain at all
        return ""
    return ".".join(reversed(parts))


class ModuleIndex:
    """Per-run cache of other modules' top-level class names.

    Lets the error-taxonomy rule (R003) read ``repro/errors.py`` once per
    lint run without importing anything; an edit to that file is picked
    up by the next run even in a long-lived process.
    """

    def __init__(self) -> None:
        self._class_names: dict[Path, frozenset[str] | None] = {}

    def class_names(self, path: Path) -> frozenset[str] | None:
        """Top-level class names defined in ``path``, or ``None`` when the
        file is missing or does not parse."""
        path = path.resolve()
        if path in self._class_names:
            return self._class_names[path]
        result: frozenset[str] | None
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            result = frozenset(
                stmt.name for stmt in tree.body if isinstance(stmt, ast.ClassDef)
            )
        except (OSError, SyntaxError, ValueError):
            result = None
        self._class_names[path] = result
        return result


@dataclass
class FileContext:
    """Everything a rule needs to check one file."""

    path: Path  #: resolved filesystem path
    display_path: str  #: path as reported in diagnostics
    source: str
    tree: ast.Module
    module: str  #: dotted module name ("" outside any package)
    suppressions: SuppressionIndex
    index: ModuleIndex = field(default_factory=ModuleIndex)

    @property
    def in_repro(self) -> bool:
        """True when the file belongs to the ``repro`` library package."""
        return self.module == "repro" or self.module.startswith("repro.")

    def subpackage(self) -> str:
        """Second dotted component (``"histograms"`` for ``repro.histograms.gh``)."""
        parts = self.module.split(".")
        return parts[1] if len(parts) > 1 else ""

    def diagnostic(
        self, rule_id: str, rule_name: str, node: ast.AST | int, message: str
    ) -> Diagnostic:
        if isinstance(node, int):
            line, col = node, 1
        else:
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0) + 1
        return Diagnostic(
            rule=rule_id,
            name=rule_name,
            path=self.display_path,
            line=line,
            col=col,
            message=message,
        )
