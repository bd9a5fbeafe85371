"""GH histogram pyramids: every level from one build.

The revised GH statistics are not just additive across *data* (the basis
of :mod:`repro.histograms.maintenance`) — they are additive across
*resolution*: a parent cell's statistics are exact functions of its four
children's,

    C_parent = sum(C_children)          (corners land in one child)
    O_parent = sum(O_children) / 4      (area ratio re-normalized)
    H_parent = sum(H_children) / 2      (length / cell width, width doubles)
    V_parent = sum(V_children) / 2

so a single build at the finest level yields every coarser level without
rescanning the data.  The pooled corner counts ``C`` equal a direct build
exactly; ``O``/``H``/``V`` add the same terms in another order, so they
match a direct build only to float64 rounding (up to ~1e-14 relative on
the paper's datasets; the tests assert 1e-13), not bit for bit.
:class:`GHPyramid` exploits this to serve multi-resolution estimation —
e.g. :func:`repro.core.advisor.calibrate_level` walks levels without
rebuilding — at the cost of one fine-level build.

Notably this does **not** hold for basic GH (an MBR intersecting two
sibling cells is one incidence in the parent, not two) nor for PH
(an MBR crossing a fine cell line can be contained in the coarse cell,
so its Cont/Isect split and AvgSpan change with the level): one more
structural advantage of the revised scheme beyond the paper's accuracy
argument.
"""

from __future__ import annotations

import numpy as np

from ..datasets import SpatialDataset
from ..geometry import Rect
from ..runtime import checkpoint
from .gh import GHHistogram
from .grid import Grid

__all__ = ["downsample_gh", "GHPyramid"]


def downsample_gh(hist: GHHistogram) -> GHHistogram:
    """The level ``h - 1`` histogram pooled 2×2 from a level ``h`` one."""
    level = hist.grid.level
    if level == 0:
        raise ValueError("cannot downsample a level-0 histogram")
    side = hist.grid.side
    parent_side = side // 2
    # Each plane (c, h, o, v) folds into its own row of the parent's block.
    planes = np.empty((4, parent_side * parent_side), dtype=np.float64)
    for values, scale, out in zip(hist.planes, (1.0, 0.5, 0.25, 0.5), planes):
        blocks = values.reshape(parent_side, 2, parent_side, 2)
        np.multiply(blocks.sum(axis=(1, 3)).reshape(-1), scale, out=out)
    return GHHistogram._from_planes(Grid(hist.grid.extent, level - 1), hist.count, planes)


class GHPyramid:
    """All GH levels ``0..max_level`` for one dataset, built once.

    ``pyramid[h]`` returns the level-``h`` histogram; levels are
    materialized lazily from the finest one and cached.
    """

    def __init__(
        self,
        dataset: SpatialDataset,
        max_level: int,
        *,
        extent: Rect | None = None,
    ) -> None:
        finest = GHHistogram.build(dataset, max_level, extent=extent)
        self.max_level = max_level
        self._levels: dict[int, GHHistogram] = {max_level: finest}

    def __getitem__(self, level: int) -> GHHistogram:
        """The histogram at ``level`` (cached after first access)."""
        if not 0 <= level <= self.max_level:
            raise IndexError(
                f"level must be in [0, {self.max_level}], got {level}"
            )
        if level not in self._levels:
            # Materialize downward from the closest cached finer level.
            finer = min(l for l in self._levels if l > level)
            hist = self._levels[finer]
            for current in range(finer - 1, level - 1, -1):
                checkpoint("pyramid.downsample")
                hist = downsample_gh(hist)
                self._levels[current] = hist
        return self._levels[level]

    @property
    def count(self) -> int:
        """Dataset cardinality (same at every level)."""
        return self._levels[self.max_level].count

    def estimate_selectivity(self, other: "GHPyramid", level: int) -> float:
        """Estimate at one level between two pyramids on the same grid."""
        return self[level].estimate_selectivity(other[level])
