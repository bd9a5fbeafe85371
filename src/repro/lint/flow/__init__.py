"""repro.lint.flow — the interprocedural analysis layer.

Everything project-wide lives here: per-file :class:`ModuleSummary`
extraction, the :class:`CallGraph` linker, the fixpoint dataflow driver,
the four whole-program rules (R010–R012, R014), and the incremental on-disk
cache.  The per-file rules (R001, R003–R009) stay in :mod:`repro.lint.rules`;
the engine composes both layers.
"""

from __future__ import annotations

from .cache import LintCache
from .graph import CallGraph, ModuleSummary, digest_source, extract_summary
from .rules import FLOW_RULES, FlowProject, FlowRule, KERNEL_SUBPACKAGES

__all__ = [
    "CallGraph",
    "FLOW_RULES",
    "FlowProject",
    "FlowRule",
    "KERNEL_SUBPACKAGES",
    "LintCache",
    "ModuleSummary",
    "digest_source",
    "extract_summary",
]
