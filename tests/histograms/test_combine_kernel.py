"""The one combine kernel: chunked dot products behind Equations 3 and 5.

Every per-pair GH and PH combine runs :func:`~repro.histograms.fused.cross_dot`,
BLAS dots of at most 8 192 floats each.  Three contracts follow:

* the planning matrix's whole-half dots are single chunks at levels
  0–6, so each of its entries ``==`` the per-pair combine there;
* a chunk that short is one single-threaded dot, so the per-pair
  answers do not depend on the BLAS thread count;
* PH's per-cell sums change Equation 3 only by rounding: its answers
  stay within :data:`ULP_BOUND` ulps of Equation 3 evaluated on
  Table 1's averages.
"""

from __future__ import annotations

import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from repro.datasets import paper_pairs
from repro.histograms import GHHistogram, Grid, PHHistogram, fused_selectivity_matrix
from tests.histograms.reference_builds import _ph_sums

#: Equation 3 on the sums layout against Equation 3 on Table 1 values,
#: in units in the last place of the latter.  The scale-20 paper pairs
#: reach 1 ulp at levels 0-9; the bound leaves room for another BLAS
#: kernel's dot order.
ULP_BOUND = 4

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def pairs():
    return paper_pairs(scale=20.0)


@pytest.fixture(scope="module")
def datasets(pairs):
    """The eight scale-20 paper datasets."""
    return [ds for pair in pairs.values() for ds in pair]


@pytest.mark.parametrize("level", range(7))
def test_matrix_equals_per_pair_combine(datasets, level):
    """Each of the 28 pairs' matrix entry ``==`` ``estimate_selectivity``."""
    extent = datasets[0].extent
    for ds in datasets[1:]:
        extent = extent.union(ds.extent)
    hists = [GHHistogram.build(ds, level, extent=extent) for ds in datasets]
    matrix = fused_selectivity_matrix(hists)
    for value, (a, b) in zip(matrix, combinations(hists, 2)):
        assert value == a.estimate_selectivity(b)
        assert value == b.estimate_selectivity(a)


_COMBINES = """
import numpy as np
from repro.datasets import SpatialDataset
from repro.geometry import Rect, RectArray
from repro.histograms import GHHistogram, PHHistogram

rng = np.random.default_rng(7)
sets = []
for n in (20_000, 15_000):
    x, y = rng.uniform(0, 1, size=(2, n))
    w, h = rng.uniform(0, 0.01, size=(2, n))
    rects = RectArray(x, y, np.minimum(x + w, 1.0), np.minimum(y + h, 1.0))
    sets.append(SpatialDataset(f"d{n}", rects, Rect.unit()))
for level in (7, 8, 9):
    for cls in (GHHistogram, PHHistogram):
        a, b = (cls.build(ds, level) for ds in sets)
        print(level, cls.__name__, a.estimate_selectivity(b).hex())
"""


def _combines_under(threads: int) -> str:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _COMBINES],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return done.stdout


def test_per_pair_combines_do_not_depend_on_blas_threads():
    """Levels 7-9 run halves of 32 768 to 524 288 floats, longer than
    OpenBLAS's threading threshold: the chunked answers are the same
    floats on one thread and on two."""
    one = _combines_under(1)
    assert len(one.splitlines()) == 6
    assert _combines_under(2) == one


def _table1_equation3(a, b, level: int) -> float:
    """Equation 3 as written in the paper, on Table 1 averages computed
    from the raw per-cell sums, one fresh temporary per operation."""
    grid = Grid(a.extent, level)
    groups, spans = [], []
    for ds in (a, b):
        sums = np.zeros((8, grid.cell_count), dtype=np.float64)
        spans.append(_ph_sums(grid, ds.rects, tuple(sums)) if len(ds) else 1.0)
        for num, w_sum, area_sum, h_sum in (sums[:4], sums[4:]):
            denom = np.maximum(num, 1.0)
            groups.append((num, area_sum / grid.cell_area, w_sum / denom, h_sum / denom))
    cont, isect, other_cont, other_isect = groups

    def case(first, second) -> np.ndarray:
        n1, c1, x1, y1 = first
        n2, c2, x2, y2 = second
        return n1 * c2 + c1 * n2 + n1 * n2 * (x1 * y2 + y1 * x2) / grid.cell_area

    sa = case(cont, other_cont).sum()
    sb = case(cont, other_isect).sum()
    sc = case(isect, other_cont).sum()
    sd = case(isect, other_isect).sum()
    return float(sa + sb + sc + sd / ((spans[0] + spans[1]) / 2.0))


@pytest.mark.parametrize("level", range(10))
def test_ph_within_ulps_of_table1_equation3(pairs, level):
    for a, b in pairs.values():
        expected = _table1_equation3(a, b, level)
        got = PHHistogram.build(a, level).estimate_pairs(PHHistogram.build(b, level))
        assert abs(got - expected) <= ULP_BOUND * np.spacing(expected), (a.name, b.name)
