"""Wall-clock budget for the whole-tree lint: the gate has to stay fast
enough to run on every commit.  It times what CI runs — ``src`` and
``tests``, every rule — and the budget is a deliberately loose multiple
of observed times (~3 s on a 2-CPU machine), so the test catches
order-of-magnitude regressions, not scheduler noise."""

import time
from pathlib import Path

from repro.lint import run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]

COLD_BUDGET_S = 10.0


def test_cold_full_tree_run_fits_the_budget():
    started = time.perf_counter()
    report = run_lint([REPO_ROOT / "src", REPO_ROOT / "tests"])
    elapsed = time.perf_counter() - started
    assert report.files_checked > 150
    assert elapsed < COLD_BUDGET_S, f"cold run took {elapsed:.2f}s"
