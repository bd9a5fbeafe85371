"""On-disk incremental cache for the lint engine.

One JSON file (text, not pickle — ``repro.lint`` obeys its own R009
single-writer rule) holding three kinds of entries, each invalidated by
BLAKE2b content keys:

* **summaries** — per-file flow summaries keyed by the file's own
  digest.  A summary depends only on its own source, so a warm run skips
  ``ast.parse`` entirely for unchanged files.
* **per-file diagnostics** — keyed by the file digest *plus* the digests
  of every project module it imports (the module-graph invalidation the
  cross-file rules R003/R006 need: edit ``errors.py`` and every module
  raising its taxonomy re-lints) plus the rule selection.
* **flow diagnostics** — keyed by the combined digest of every project
  module plus the flow-rule selection; any edit anywhere re-runs the
  (cheap, parse-free) interprocedural pass over cached summaries.

Writes are atomic (tmp + ``os.replace``) and every load is fully
tolerant: a corrupt, truncated, or version-skewed cache behaves exactly
like no cache.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Iterable, Mapping

from ..diagnostics import Diagnostic
from .graph import ModuleSummary

__all__ = ["CACHE_SCHEMA_VERSION", "LintCache"]

CACHE_SCHEMA_VERSION = 2


def _diag_to_json(diag: Diagnostic) -> dict[str, Any]:
    return diag.as_dict()


def _diag_from_json(data: Mapping[str, Any]) -> Diagnostic:
    return Diagnostic(
        rule=data["rule"],
        name=data["name"],
        path=data["path"],
        line=data["line"],
        col=data["col"],
        message=data["message"],
    )


def combine_digests(parts: Iterable[str]) -> str:
    """Order-sensitive combination of content digests into one key."""
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(part.encode("ascii"))
        h.update(b"\x00")
    return h.hexdigest()


class LintCache:
    """Load-once / save-once view of the cache file."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._summaries: dict[str, dict[str, Any]] = {}
        self._file_diags: dict[str, list[dict[str, Any]]] = {}
        self._flow_key: str | None = None
        self._flow_diags: list[dict[str, Any]] = []
        self._dirty = False
        self._load()

    def _load(self) -> None:
        try:
            raw = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if not isinstance(raw, dict) or raw.get("version") != CACHE_SCHEMA_VERSION:
            return
        summaries = raw.get("summaries")
        file_diags = raw.get("file_diags")
        flow = raw.get("flow")
        if isinstance(summaries, dict):
            self._summaries = summaries
        if isinstance(file_diags, dict):
            self._file_diags = file_diags
        if isinstance(flow, dict) and isinstance(flow.get("key"), str):
            self._flow_key = flow["key"]
            diags = flow.get("diags")
            if isinstance(diags, list):
                self._flow_diags = diags

    # -- summaries -------------------------------------------------------

    def get_summary(self, digest: str) -> ModuleSummary | None:
        data = self._summaries.get(digest)
        if data is None:
            return None
        try:
            return ModuleSummary.from_json(data)
        except (KeyError, IndexError, TypeError):
            return None

    def put_summary(self, digest: str, summary: ModuleSummary) -> None:
        self._summaries[digest] = summary.to_json()
        self._dirty = True

    # -- per-file diagnostics -------------------------------------------

    def get_file_diags(self, key: str) -> list[Diagnostic] | None:
        data = self._file_diags.get(key)
        if data is None:
            return None
        try:
            return [_diag_from_json(d) for d in data]
        except (KeyError, TypeError):
            return None

    def put_file_diags(self, key: str, diags: Iterable[Diagnostic]) -> None:
        self._file_diags[key] = [_diag_to_json(d) for d in diags]
        self._dirty = True

    # -- flow diagnostics -----------------------------------------------

    def get_flow_diags(self, key: str) -> list[Diagnostic] | None:
        if key != self._flow_key:
            return None
        try:
            return [_diag_from_json(d) for d in self._flow_diags]
        except (KeyError, TypeError):
            return None

    def put_flow_diags(self, key: str, diags: Iterable[Diagnostic]) -> None:
        self._flow_key = key
        self._flow_diags = [_diag_to_json(d) for d in diags]
        self._dirty = True

    # -- persistence -----------------------------------------------------

    def save(self, *, keep_digests: set[str] | None = None) -> None:
        """Write the cache back (atomically) if anything changed.

        ``keep_digests`` prunes summary/diagnostic entries whose file
        digest is no longer live, so the cache tracks the tree instead of
        accreting every digest ever seen.
        """
        if keep_digests is not None:
            live_summaries = {
                d: s for d, s in self._summaries.items() if d in keep_digests
            }
            live_diags = {
                k: v
                for k, v in self._file_diags.items()
                if k.split("+", 1)[0] in keep_digests
            }
            if live_summaries != self._summaries or live_diags != self._file_diags:
                self._summaries = live_summaries
                self._file_diags = live_diags
                self._dirty = True
        if not self._dirty:
            return
        payload = {
            "version": CACHE_SCHEMA_VERSION,
            "summaries": self._summaries,
            "file_diags": self._file_diags,
            "flow": {"key": self._flow_key, "diags": self._flow_diags},
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")
        os.replace(tmp, self.path)
        self._dirty = False
