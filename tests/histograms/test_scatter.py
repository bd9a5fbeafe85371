"""Histogram builds against the staged reference builds they replaced.

The shipped GH, PH and basic-GH builds scatter every statistic, one
block of rectangles at a time, from one split into single-cell and
spanning rectangles and one run expansion of the spanning ones;
:mod:`tests.histograms.reference_builds` keeps per-stage scatters in the
same accumulation order (for GH, block-major over the same blocks).  The shipped builds must equal
them bit for bit (``tobytes()`` on every plane) on the paper's datasets
and on degenerate inputs at every level 0-9, and beat them on
paper-shaped data.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.datasets import SpatialDataset, paper_pairs
from repro.geometry import Rect, RectArray
from repro.histograms import BasicGHHistogram, GHHistogram, PHHistogram
from tests.histograms.reference_builds import gh_basic_reference, gh_reference, ph_reference

LEVELS = range(10)


def _degenerate() -> list[tuple[SpatialDataset, Rect | None]]:
    """Inputs that stress the cell-range and clipping arithmetic, each
    with the extent to build over (``None``: the dataset's own)."""
    rng = np.random.default_rng(2001)
    x, y = rng.uniform(0, 1, size=(2, 200))
    w, h = rng.uniform(0, 0.1, size=(2, 200))
    xe, ye = np.minimum(x + w, 1.0), np.minimum(y + h, 1.0)
    # Multiples of 1/64 lie on a cell line at every level up to 6 and on
    # an every-other cell line beyond; 0 and 1 are the extent's edges.
    lines = rng.integers(0, 65, size=(4, 200)) / 64.0
    lines.sort(axis=0)
    beyond = rng.uniform(-1.0, 2.0, size=(2, 300))
    side = rng.uniform(0, 0.8, size=(2, 300))
    cases = {
        "empty": RectArray.empty(),
        "points": RectArray(x, y, x, y),
        "zero_width": RectArray(x, y, x, ye),
        "zero_height": RectArray(x, y, xe, y),
        "cell_lines": RectArray(lines[0], lines[1], lines[2], lines[3]),
        # Every rectangle crosses x = 0.5, so from level 1 on none is
        # single-cell and the builds skip that stage.
        "spanning": RectArray(0.49 * x, y, 0.51 + 0.49 * w, ye),
        "beyond": RectArray(
            beyond[0], beyond[1], beyond[0] + side[0], beyond[1] + side[1]
        ),
    }
    inputs: list[tuple[SpatialDataset, Rect | None]] = []
    for name, rects in cases.items():
        dataset = SpatialDataset.from_rects(name, rects, None if len(rects) else Rect.unit())
        # "beyond" builds over the unit square, inside its data's bounds.
        inputs.append((dataset, Rect.unit() if name == "beyond" else None))
    return inputs


@pytest.fixture(scope="module")
def pairs() -> dict[str, tuple[SpatialDataset, SpatialDataset]]:
    return paper_pairs(scale=20.0)


@pytest.fixture(scope="module")
def inputs(pairs) -> list[tuple[SpatialDataset, Rect | None]]:
    """The eight scale-20 paper datasets, then the degenerate set."""
    return [(ds, None) for pair in pairs.values() for ds in pair] + _degenerate()


class TestBaselineEquivalence:
    """Every plane of every shipped build equals the reference's."""

    @pytest.mark.parametrize("level", LEVELS)
    def test_gh_build_bit_identical(self, inputs, level):
        for ds, extent in inputs:
            built = GHHistogram.build(ds, level, extent=extent)
            ref = gh_reference(ds, level, extent=extent)
            assert built.count == ref.count
            for name in ("c", "o", "h", "v"):
                assert getattr(built, name).tobytes() == getattr(ref, name).tobytes(), (
                    ds.name,
                    name,
                )

    @pytest.mark.parametrize("level", LEVELS)
    def test_ph_build_bit_identical(self, inputs, level):
        for ds, extent in inputs:
            built = PHHistogram.build(ds, level, extent=extent)
            ref = ph_reference(ds, level, extent=extent)
            assert built.count == ref.count
            assert built.avg_span == ref.avg_span, ds.name
            for row, (plane, expected) in enumerate(zip(built.planes, ref.planes)):
                assert plane.tobytes() == expected.tobytes(), (ds.name, row)

    @pytest.mark.parametrize("level", LEVELS)
    def test_gh_basic_build_bit_identical(self, inputs, level):
        for ds, extent in inputs:
            built = BasicGHHistogram.build(ds, level, extent=extent)
            ref = gh_basic_reference(ds, level, extent=extent)
            assert built.count == ref.count
            for name in ("c", "i", "h", "v"):
                assert getattr(built, name).tobytes() == getattr(ref, name).tobytes(), (
                    ds.name,
                    name,
                )


#: Build-time floors over the reference builds at levels 6-7 on the
#: scale-20 TS/TCB pair (measured ~2.3-3.0x GH against the single-cell-first
#: reference and ~1.5x PH on a loaded 2-CPU x86_64 host).
BUILD_FLOORS = {GHHistogram: 1.5, PHHistogram: 1.2}
REFERENCES = {GHHistogram: gh_reference, PHHistogram: ph_reference}


@pytest.mark.slow
@pytest.mark.parametrize("level", [6, 7])
@pytest.mark.parametrize("cls", [GHHistogram, PHHistogram], ids=["gh", "ph"])
def test_optimized_build_beats_the_legacy_path(pairs, cls, level):
    """Interleaved best-of-40 A/B, so machine-speed drift cannot fake a
    speedup either way."""
    ts, tcb = pairs["TS_TCB"]
    reference = REFERENCES[cls]

    def build():
        cls.build(ts, level)
        cls.build(tcb, level)

    def build_reference():
        reference(ts, level)
        reference(tcb, level)

    build()  # warm caches and allocators before timing
    build_reference()
    fast = slow = float("inf")
    for _ in range(40):
        start = time.perf_counter()
        build()
        fast = min(fast, time.perf_counter() - start)
        start = time.perf_counter()
        build_reference()
        slow = min(slow, time.perf_counter() - start)
    assert slow / fast >= BUILD_FLOORS[cls], f"{slow / fast:.2f}x"
