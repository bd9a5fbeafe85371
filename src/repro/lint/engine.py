"""File collection and rule execution.

Two layers compose here:

* **per-file rules** (R001, R003–R009, :mod:`repro.lint.rules`) — each file is
  parsed and checked independently;
* **flow rules** (R010–R012, R014, :mod:`repro.lint.flow`) — every project
  module's summary is linked into one call graph and the interprocedural
  rules run over the whole program.

Both layers are incremental when :func:`run_lint` is given a cache: file
summaries are keyed by BLAKE2b content digests, per-file diagnostics
additionally by the digests of the modules a file imports (module-graph
invalidation), and the flow pass by the combined digest of the whole
project — so a warm run parses nothing and a one-file edit re-parses one
file plus re-links the (parse-free) graph.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .context import FileContext, ModuleIndex, module_name_for
from .diagnostics import Diagnostic
from .flow.cache import LintCache, combine_digests
from .flow.graph import ModuleSummary, digest_source, extract_summary
from .flow.rules import FLOW_RULES, FlowProject
from .rules import PARSE_ERROR_RULE, RULES
from .suppressions import SuppressionIndex

__all__ = ["LintReport", "LintRunStats", "iter_python_files", "lint_file", "run_lint"]

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
class LintRunStats:
    """Cache/incrementality counters for one run (asserted by tests)."""

    files_parsed: int = 0  #: files that went through ast.parse this run
    summaries_from_cache: int = 0  #: files whose flow summary was reused
    file_diags_from_cache: int = 0  #: files whose per-file diags were reused
    flow_from_cache: bool = False  #: interprocedural pass reused wholesale
    flow_modules: int = 0  #: project modules linked into the call graph
    slice_files: int | None = None  #: files in the --changed-only slice


@dataclass
class LintReport:
    """Outcome of one lint run."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    files_checked: int = 0
    stats: LintRunStats = field(default_factory=LintRunStats)

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


def _select_rules(
    select: Iterable[str] | None, ignore: Iterable[str] | None
) -> tuple[list[str], list[str]]:
    """Validated ``(per-file ids, flow ids)`` for a selection."""
    known = list(RULES) + list(FLOW_RULES)
    ids = known
    if select is not None:
        wanted = set(select)
        unknown = wanted - set(known)
        if unknown:
            raise ValueError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
        ids = [rid for rid in ids if rid in wanted]
    if ignore is not None:
        unwanted = set(ignore)
        unknown = unwanted - set(known)
        if unknown:
            raise ValueError(f"unknown rule id(s): {', '.join(sorted(unknown))}")
        ids = [rid for rid in ids if rid not in unwanted]
    return [r for r in ids if r in RULES], [r for r in ids if r in FLOW_RULES]


def _parse_error_diag(path_display: str, exc: Exception) -> Diagnostic:
    rule_id, rule_name = PARSE_ERROR_RULE
    message = exc.msg if isinstance(exc, SyntaxError) else str(exc)
    return Diagnostic(
        rule=rule_id,
        name=rule_name,
        path=path_display,
        line=getattr(exc, "lineno", None) or 1,
        col=getattr(exc, "offset", None) or 1,
        message=f"file does not parse: {message}",
    )


def _run_perfile_rules(ctx: FileContext, rule_ids: Sequence[str]) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    for rule_id in rule_ids:
        for diag in RULES[rule_id].run(ctx):
            if not ctx.suppressions.is_suppressed(diag.rule, diag.line):
                diagnostics.append(diag)
    diagnostics.sort(key=Diagnostic.sort_key)
    return diagnostics


def lint_file(
    path: str | Path,
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    index: ModuleIndex | None = None,
) -> list[Diagnostic]:
    """Lint one file with the per-file rules; returns its
    (suppression-filtered) diagnostics.  Flow rules need the whole
    project and only run under :func:`run_lint`."""
    path = Path(path)
    display = str(path)
    rule_ids, _flow_ids = _select_rules(select, ignore)
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=display)
    except (SyntaxError, ValueError, UnicodeDecodeError) as exc:
        return [_parse_error_diag(display, exc)]
    ctx = FileContext(
        path=path.resolve(),
        display_path=display,
        source=source,
        tree=tree,
        module=module_name_for(path),
        suppressions=SuppressionIndex.from_source(source),
        index=index if index is not None else ModuleIndex(),
    )
    return _run_perfile_rules(ctx, rule_ids)


@dataclass
class _FileRecord:
    path: Path
    display: str
    resolved: Path
    digest: str
    module: str
    is_pkg: bool
    source: str | None = None
    tree: ast.Module | None = None
    summary: ModuleSummary | None = None
    parse_error: Diagnostic | None = None


def _load_record(path: Path) -> _FileRecord:
    display = str(path)
    resolved = path.resolve()
    module = module_name_for(path)
    is_pkg = path.name == "__init__.py"
    try:
        raw = resolved.read_bytes()
        source: str | None = raw.decode("utf-8")
        digest = digest_source(raw)
    except OSError as exc:
        return _FileRecord(
            path, display, resolved, digest="", module=module, is_pkg=is_pkg,
            parse_error=_parse_error_diag(display, exc),
        )
    except UnicodeDecodeError as exc:
        return _FileRecord(
            path, display, resolved, digest=digest_source(raw), module=module,
            is_pkg=is_pkg, parse_error=_parse_error_diag(display, exc),
        )
    return _FileRecord(
        path, display, resolved, digest=digest, module=module, is_pkg=is_pkg,
        source=source,
    )


def _ensure_tree(record: _FileRecord, stats: LintRunStats) -> ast.Module | None:
    if record.tree is not None or record.parse_error is not None:
        return record.tree
    assert record.source is not None
    try:
        record.tree = ast.parse(record.source, filename=record.display)
        stats.files_parsed += 1
    except (SyntaxError, ValueError) as exc:
        record.parse_error = _parse_error_diag(record.display, exc)
    return record.tree


def _ensure_summary(
    record: _FileRecord, cache: LintCache | None, stats: LintRunStats
) -> ModuleSummary | None:
    if record.summary is not None:
        return record.summary
    if cache is not None:
        cached = cache.get_summary(record.digest)
        if cached is not None:
            # re-home: the same content may be seen under another path
            if cached.path != record.display or cached.module != record.module:
                cached = ModuleSummary(
                    module=record.module,
                    path=record.display,
                    digest=cached.digest,
                    is_pkg=record.is_pkg,
                    imports=cached.imports,
                    deps=cached.deps,
                    functions=cached.functions,
                    classes=cached.classes,
                    suppress_file=cached.suppress_file,
                    suppress_line=cached.suppress_line,
                )
            record.summary = cached
            stats.summaries_from_cache += 1
            return cached
    tree = _ensure_tree(record, stats)
    if tree is None or record.source is None:
        return None
    record.summary = extract_summary(
        module=record.module,
        path=record.display,
        source=record.source,
        tree=tree,
        digest=record.digest,
        is_pkg=record.is_pkg,
    )
    if cache is not None:
        cache.put_summary(record.digest, record.summary)
    return record.summary


def _reverse_closure(
    summaries: dict[str, ModuleSummary], changed_modules: set[str]
) -> set[str]:
    """Modules that import any changed module, transitively (plus the
    changed modules themselves)."""
    importers: dict[str, set[str]] = {}
    for mod, summary in summaries.items():
        for dep in summary.deps:
            if dep in summaries:
                importers.setdefault(dep, set()).add(mod)
    out = set(changed_modules) & set(summaries)
    work = list(out)
    while work:
        current = work.pop()
        for importer in importers.get(current, ()):
            if importer not in out:
                out.add(importer)
                work.append(importer)
    return out


def run_lint(
    paths: Sequence[str | Path],
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    flow: bool = True,
    cache: LintCache | str | Path | None = None,
    changed: Sequence[str | Path] | None = None,
) -> LintReport:
    """Lint every python file under ``paths``.

    ``flow=False`` disables the interprocedural layer (R010–R012, R014).
    ``cache`` (a path or a :class:`LintCache`) makes the run incremental.
    ``changed`` restricts *reporting and per-file analysis* to the given
    files plus everything that imports them through the module graph —
    summaries of unchanged files still feed the call graph (from cache
    when one is given), so interprocedural findings stay whole-program.
    """
    perfile_ids, flow_ids = _select_rules(select, ignore)
    if not flow:
        flow_ids = []

    cache_obj = (
        cache if isinstance(cache, LintCache) or cache is None else LintCache(cache)
    )
    report = LintReport()
    stats = report.stats
    index = ModuleIndex()  # share the cross-file cache across the run

    records = [_load_record(file) for file in iter_python_files(paths)]

    # summaries for everything (feeds deps keys, suppressions, the graph)
    for record in records:
        if record.parse_error is None:
            _ensure_summary(record, cache_obj, stats)

    module_digest = {
        r.module: r.digest for r in records if r.module and r.parse_error is None
    }
    project_summaries = {
        r.module: r.summary
        for r in records
        if r.summary is not None
        and r.module
        and (r.module == "repro" or r.module.startswith("repro."))
    }

    # --changed-only slice: the changed files plus reverse importers
    slice_resolved: set[Path] | None = None
    if changed is not None:
        changed_paths = {Path(c).resolve() for c in changed}
        changed_modules = {
            r.module for r in records if r.resolved in changed_paths and r.module
        }
        slice_modules = _reverse_closure(
            {m: s for m, s in project_summaries.items() if s is not None},
            changed_modules,
        )
        slice_resolved = {
            r.resolved
            for r in records
            if r.resolved in changed_paths or (r.module and r.module in slice_modules)
        }
        stats.slice_files = len(slice_resolved)

    selection_key = combine_digests(["perfile", *perfile_ids])

    def in_slice(record: _FileRecord) -> bool:
        return slice_resolved is None or record.resolved in slice_resolved

    for record in records:
        if not in_slice(record):
            continue
        report.files_checked += 1
        if record.parse_error is not None:
            report.diagnostics.append(record.parse_error)
            continue
        dep_key = ""
        if record.summary is not None:
            dep_key = combine_digests(
                f"{dep}={module_digest[dep]}"
                for dep in sorted(set(record.summary.deps))
                if dep in module_digest
            )
        key = f"{record.digest}+{dep_key}+{selection_key}"
        if cache_obj is not None:
            hit = cache_obj.get_file_diags(key)
            if hit is not None:
                stats.file_diags_from_cache += 1
                report.diagnostics.extend(hit)
                continue
        tree = _ensure_tree(record, stats)
        if tree is None:
            if record.parse_error is not None:
                report.diagnostics.append(record.parse_error)
            continue
        assert record.source is not None
        ctx = FileContext(
            path=record.resolved,
            display_path=record.display,
            source=record.source,
            tree=tree,
            module=record.module,
            suppressions=SuppressionIndex.from_source(record.source),
            index=index,
        )
        diags = _run_perfile_rules(ctx, perfile_ids)
        if cache_obj is not None:
            cache_obj.put_file_diags(key, diags)
        report.diagnostics.extend(diags)

    # interprocedural pass over the project modules
    if flow_ids and project_summaries:
        summaries = {m: s for m, s in project_summaries.items() if s is not None}
        stats.flow_modules = len(summaries)
        flow_key = combine_digests(
            [
                "flow",
                *flow_ids,
                *sorted(f"{m}={s.digest}" for m, s in summaries.items()),
            ]
        )
        flow_diags: list[Diagnostic] | None = None
        if cache_obj is not None:
            flow_diags = cache_obj.get_flow_diags(flow_key)
            if flow_diags is not None:
                stats.flow_from_cache = True
        if flow_diags is None:
            project = FlowProject.from_summaries(summaries)
            by_path = {s.path: s for s in summaries.values()}
            flow_diags = []
            for rule_id in flow_ids:
                for diag in FLOW_RULES[rule_id].run(project):
                    owner = by_path.get(diag.path)
                    if owner is not None and owner.is_suppressed(
                        diag.rule, diag.line
                    ):
                        continue
                    flow_diags.append(diag)
            if cache_obj is not None:
                cache_obj.put_flow_diags(flow_key, flow_diags)
        if slice_resolved is not None:
            slice_displays = {
                r.display for r in records if r.resolved in slice_resolved
            }
            flow_diags = [d for d in flow_diags if d.path in slice_displays]
        report.diagnostics.extend(flow_diags)

    if cache_obj is not None:
        cache_obj.save(
            keep_digests={r.digest for r in records if r.digest}
        )
    report.diagnostics.sort(key=Diagnostic.sort_key)
    return report
