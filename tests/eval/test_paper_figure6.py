"""Figure 6 at scale 20 reproduces its committed error cells.

``python -m repro.eval fig6 --scale 20`` is regenerated in process and
every ``error`` cell must equal ``results_scale20.txt`` at printed
precision (the two time columns are wall-clock and are not compared).
The cells are deterministic: the datasets and every sample draw are
seeded, and an estimate is a scaled count of sample pairs, so it does
not depend on the join kernel or on the host.

An intended change to a published number regenerates
``results_scale20.txt`` and justifies the new cells in CHANGES.md.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.eval.__main__ import main

pytestmark = [pytest.mark.paper, pytest.mark.slow]

RESULTS = Path(__file__).resolve().parents[2] / "results_scale20.txt"

Cells = dict[tuple[str, str, str], str]


def figure6_cells(report: str) -> Cells:
    """``(pair, combo, method) -> error`` from every Figure 6 panel."""
    cells: Cells = {}
    pair = None
    for line in report.splitlines():
        fields = line.split()
        if line.startswith("Figure 6 — "):
            pair = fields[3]
        elif not fields:
            pair = None  # a blank line ends a panel
        elif pair is not None and fields[0] != "combo":
            combo, method, error, _est_time1, _est_time2 = fields
            cells[(pair, combo, method)] = error
    return cells


def test_figure6_regenerates_committed_cells(capsys):
    committed = figure6_cells(RESULTS.read_text())
    assert len(committed) == 108  # 4 pairs x 9 combos x 3 methods
    assert main(["fig6", "--scale", "20"]) == 0
    regenerated = figure6_cells(capsys.readouterr().out)
    assert regenerated.keys() == committed.keys()
    differing = {
        key: (regenerated[key], committed[key])
        for key in committed
        if regenerated[key] != committed[key]
    }
    assert not differing, differing
