"""Figure 7 at scale 20 reproduces its committed cells.

``python -m repro.eval fig7 --scale 20`` is regenerated in process and
every ``error`` and ``space`` cell must equal ``results_scale20.txt`` at
printed precision (the time columns are wall-clock and are not
compared).  The cells are deterministic: the datasets are seeded and
the histograms and the exact join involve no randomness.  The one-shot
``gh_selectivity`` and ``ph_selectivity`` must answer the same cells.

An intended change to a published number regenerates
``results_scale20.txt`` and justifies the new cells in CHANGES.md.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.metrics import relative_error_pct
from repro.datasets import paper_pairs
from repro.eval.__main__ import main
from repro.eval.figures import format_pct
from repro.eval.harness import prepare_pairs
from repro.histograms import gh_selectivity, ph_selectivity

pytestmark = [pytest.mark.paper, pytest.mark.slow]

RESULTS = Path(__file__).resolve().parents[2] / "results_scale20.txt"
ONE_SHOT = {"GH": gh_selectivity, "PH": ph_selectivity}

Cells = dict[tuple[str, str, int], tuple[str, str]]


def figure7_cells(report: str) -> Cells:
    """``(pair, scheme, level) -> (error, space)`` from every Figure 7 panel."""
    cells: Cells = {}
    pair = None
    for line in report.splitlines():
        fields = line.split()
        if line.startswith("Figure 7 — "):
            pair = fields[3]
        elif not fields:
            pair = None  # a blank line ends a panel
        elif pair is not None and fields[0] != "scheme":
            scheme, level, error, _est_time, _build_time, space = fields
            cells[(pair, scheme, int(level))] = (error, space)
    return cells


@pytest.fixture(scope="module")
def committed() -> Cells:
    cells = figure7_cells(RESULTS.read_text())
    assert len(cells) == 80  # 4 pairs x 2 schemes x 10 levels
    return cells


def test_figure7_regenerates_committed_cells(committed, capsys):
    assert main(["fig7", "--scale", "20"]) == 0
    regenerated = figure7_cells(capsys.readouterr().out)
    assert regenerated.keys() == committed.keys()
    differing = {
        key: (regenerated[key], committed[key])
        for key in committed
        if regenerated[key] != committed[key]
    }
    assert not differing, differing


def test_one_shot_estimators_answer_the_committed_errors(committed):
    for ctx in prepare_pairs(paper_pairs(scale=20.0)):
        for (pair, scheme, level), (error, _space) in committed.items():
            if pair != ctx.name:
                continue
            estimate = ONE_SHOT[scheme](ctx.ds1, ctx.ds2, level)
            got = format_pct(relative_error_pct(estimate, ctx.actual_selectivity))
            assert got == error, (pair, scheme, level)
