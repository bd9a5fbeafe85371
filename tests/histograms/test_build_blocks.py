"""Builds run in fixed blocks of rectangles, so no build temporary grows with N.

Every histogram build walks its rectangles in consecutive views of at
most :data:`~repro.histograms.grid.BUILD_BLOCK` rectangles
(:func:`~repro.histograms.grid.rect_blocks`).  Two properties follow:

* PH and basic GH do not depend on the block size at all: with the
  constant patched to 1, 7, its default or more than N, every plane and
  ``avg_span`` is ``tobytes()``-equal to the one-pass reference build
  (``test_scatter.py`` checks the default block on the paper datasets
  at levels 0-9); GH's block-major order follows the constant, and its
  reference reads the constant too;
* the memory a build allocates on top of what it returns is set by the
  block, not by N: the ``tracemalloc`` peak of a level-7 build over CAR
  tiled four times stays within 10% of the peak over CAR itself.  No
  clock is read, so the gate cannot flake on a loaded machine.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.datasets import SpatialDataset, make_paper_dataset
from repro.geometry import RectArray
from repro.histograms import BasicGHHistogram, GHHistogram, PHHistogram
from repro.histograms import grid as grid_module
from repro.histograms.grid import BUILD_BLOCK, rect_blocks
from tests.histograms.reference_builds import gh_basic_reference, gh_reference, ph_reference

SCHEMES = [GHHistogram, PHHistogram, BasicGHHistogram]
REFERENCES = {
    GHHistogram: gh_reference,
    PHHistogram: ph_reference,
    BasicGHHistogram: gh_basic_reference,
}


@pytest.fixture(scope="module")
def small() -> list[SpatialDataset]:
    """Two paper datasets of about a thousand rectangles each, so that a
    block of one rectangle stays affordable."""
    return [make_paper_dataset("TCB", scale=400.0), make_paper_dataset("CAR", scale=2000.0)]


@pytest.fixture(scope="module")
def car() -> SpatialDataset:
    return make_paper_dataset("CAR", scale=20.0)


def _planes(hist) -> list[bytes]:
    if isinstance(hist, BasicGHHistogram):
        return [hist.c.tobytes(), hist.i.tobytes(), hist.h.tobytes(), hist.v.tobytes()]
    return [plane.tobytes() for plane in hist.planes]


def test_blocks_are_views_in_input_order(car):
    rects = car.rects
    blocks = list(rect_blocks(rects))
    assert len(blocks) == -(-len(rects) // BUILD_BLOCK) > 1
    assert all(len(b) == BUILD_BLOCK for b in blocks[:-1])
    for axis in ("xmin", "ymin", "xmax", "ymax"):
        column = getattr(rects, axis)
        assert all(np.shares_memory(getattr(b, axis), column) for b in blocks)
        assert np.array_equal(np.concatenate([getattr(b, axis) for b in blocks]), column)
    assert list(rect_blocks(RectArray.empty())) == []


@pytest.mark.parametrize("block", ["1", "7", "default", "above_n"])
@pytest.mark.parametrize("cls", SCHEMES, ids=["gh", "ph", "gh_basic"])
def test_build_equals_its_reference_at_any_block_size(monkeypatch, small, cls, block):
    """PH and basic GH against their one-pass references (the block size
    cannot move their bits); GH against its reference at the same block
    size (the block size is part of its order)."""
    for ds in small:
        size = {"1": 1, "7": 7, "default": BUILD_BLOCK, "above_n": len(ds) + 1}[block]
        monkeypatch.setattr(grid_module, "BUILD_BLOCK", size)
        built = cls.build(ds, 5)
        ref = REFERENCES[cls](ds, 5)
        assert built.count == ref.count == len(ds)
        assert _planes(built) == _planes(ref), (ds.name, size)
        if cls is PHHistogram:
            assert built.avg_span == ref.avg_span, (ds.name, size)


def _peak_above_result(cls, dataset: SpatialDataset) -> int:
    """Bytes a level-7 build allocated at its peak beyond what it returns."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        hist = cls.build(dataset, 7)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hist.count == len(dataset)
    return peak - held


@pytest.mark.parametrize("cls", SCHEMES, ids=["gh", "ph", "gh_basic"])
def test_build_peak_does_not_grow_with_n(car, cls):
    """About 450k rectangles need no more scratch memory than 112k: at
    the unblocked build this ratio was 4.0 for every scheme."""
    rects = car.rects
    tiled = SpatialDataset.from_rects(
        "CARx4",
        RectArray(
            *(np.tile(getattr(rects, axis), 4) for axis in ("xmin", "ymin", "xmax", "ymax")),
            validate=False,
        ),
        car.extent,
    )
    base = _peak_above_result(cls, car)
    grown = _peak_above_result(cls, tiled)
    assert grown <= 1.10 * base, (base, grown)
