"""repro.lint — AST-based invariant checker for the estimation stack.

Generic linters enforce style; this package enforces the *domain
contracts* the estimators' reproducibility rests on, at commit time
instead of at differential-test time:

* seeded-RNG discipline (the golden corpus and metamorphic gates assume
  every stochastic path takes an explicit ``numpy.random.Generator``);
* cooperative preemption (long kernel loops must pass a
  :func:`repro.runtime.checkpoint` so deadlines and the fault harness
  can interrupt them);
* the error taxonomy (``repro.errors``) at every ``raise`` site;
* the float64 dtype contract of the rect-array / scatter kernels;
* no silent broad exception handlers outside the resilient fallback
  chain;
* monotonic timing, no blocking sleeps, and a single writer of binary
  artifacts;
* interprocedural contracts: checkpoint reachability from kernel loops,
  no blocking call reachable from ``async def``, ``# guarded-by:`` lock
  discipline, and one deadline per call chain.

The checker is pure stdlib (``ast`` + ``tokenize``) — it imports neither
numpy nor the rest of :mod:`repro`, so ``python -m repro.lint`` runs
anywhere the sources are checked out.  Each run is one pass: every file
is parsed once and every rule runs on every file.

Usage::

    python -m repro.lint src tests            # gate the tree (exit 1 on findings)
    python -m repro.lint --format json src    # machine-readable output
    python -m repro.lint --list-rules         # rule catalogue

Suppression: append ``# repro-lint: disable=R001`` to the flagged line
(``disable=R001,R005`` for several rules, ``disable=all`` for every
rule); ``# repro-lint: disable-next=R010`` suppresses the following
line, and a ``# repro-lint: disable-file=R004`` comment on a line of its
own anywhere in the file suppresses the rule file-wide.  Each rule's
invariant and the intended escape hatches are documented in DESIGN.md
§10.
"""

from __future__ import annotations

from .diagnostics import Diagnostic
from .engine import LintReport, lint_file, run_lint
from .rules import RULES, Rule

__all__ = [
    "Diagnostic",
    "LintReport",
    "Rule",
    "RULES",
    "lint_file",
    "run_lint",
]
