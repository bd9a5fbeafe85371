"""The dataset inventory at scale 20 reproduces its committed cells.

``python -m repro.eval datasets --scale 20`` is regenerated in process
and every non-time cell of its two sections must equal
``results_scale20.txt`` at printed precision: per dataset the count,
coverage and average width and height; per join pair both sizes, the
exact pair count, the selectivity and the R-tree size (the ``join s``
and ``tree s`` columns are wall-clock and are not compared).  The pair
counts are the ground truth every other figure is scored against, so
the front door's exact join, :func:`repro.join.join_count`, must answer
each of them too.

An intended change to a published number regenerates
``results_scale20.txt`` and justifies the new cells in CHANGES.md.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.datasets import paper_pairs
from repro.eval.__main__ import main
from repro.join import join_count

pytestmark = pytest.mark.paper

RESULTS = Path(__file__).resolve().parents[2] / "results_scale20.txt"

Sections = dict[str, dict[str, tuple[str, ...]]]


def inventory_cells(report: str) -> Sections:
    """``{"datasets": {name: cells}, "pairs": {pair: cells}}``, times dropped."""
    sections: Sections = {"datasets": {}, "pairs": {}}
    section = None
    for line in report.splitlines():
        fields = line.split()
        if line == "Datasets":
            section = "datasets"
        elif line == "Join pairs (ground truth)":
            section = "pairs"
        elif not fields or not line.startswith(" "):
            section = None  # a blank line or the next section's title
        elif section == "datasets" and fields[0] != "name":
            name, count, coverage, avg_w, avg_h = fields
            sections["datasets"][name] = (count, coverage, avg_w, avg_h)
        elif section == "pairs" and fields[0] != "pair":
            pair, n1, n2, pairs, selectivity, _join_s, _tree_s, tree_mb = fields
            sections["pairs"][pair] = (n1, n2, pairs, selectivity, tree_mb)
    return sections


@pytest.fixture(scope="module")
def committed() -> Sections:
    cells = inventory_cells(RESULTS.read_text())
    assert len(cells["datasets"]) == 8
    assert len(cells["pairs"]) == 4
    return cells


def test_inventory_regenerates_committed_cells(committed, capsys):
    assert main(["datasets", "--scale", "20"]) == 0
    assert inventory_cells(capsys.readouterr().out) == committed


def test_join_count_answers_the_committed_pair_counts(committed):
    for name, (ds1, ds2) in paper_pairs(scale=20.0).items():
        pairs = int(committed["pairs"][name][2])
        assert join_count(ds1.rects, ds2.rects) == pairs, name
