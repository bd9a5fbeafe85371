"""repro.lint.flow — the interprocedural analysis layer.

Everything project-wide lives here: per-file :class:`ModuleSummary`
extraction, the :class:`CallGraph` linker, the fixpoint dataflow driver,
and the four whole-program rules (R010–R012, R014).  The per-file rules stay
in :mod:`repro.lint.rules`; the engine feeds both layers from one parse of
each file.
"""

from __future__ import annotations

from .graph import CallGraph, ModuleSummary, extract_summary
from .rules import FLOW_RULES, FlowRule, KERNEL_SUBPACKAGES

__all__ = [
    "CallGraph",
    "FLOW_RULES",
    "FlowRule",
    "KERNEL_SUBPACKAGES",
    "ModuleSummary",
    "extract_summary",
]
