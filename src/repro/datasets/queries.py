"""Window-query workloads: a deterministic tiling of the extent."""

from __future__ import annotations

from typing import Iterator

from ..geometry import Rect

__all__ = ["query_grid"]


def query_grid(
    per_side: int, *, extent: Rect = None, coverage: float = 1.0
) -> Iterator[Rect]:
    """A deterministic ``per_side x per_side`` tiling of query windows.

    ``coverage`` < 1 shrinks each tile about its center (gap between
    queries); 1.0 tiles the extent exactly.  Useful for exhaustive
    accuracy maps and plots.
    """
    extent = extent or Rect.unit()
    if per_side < 1:
        raise ValueError("per_side must be positive")
    if not 0 < coverage <= 1:
        raise ValueError("coverage must be in (0, 1]")
    tile_w = extent.width / per_side
    tile_h = extent.height / per_side
    w = tile_w * coverage
    h = tile_h * coverage
    for j in range(per_side):
        for i in range(per_side):
            cx = extent.xmin + (i + 0.5) * tile_w
            cy = extent.ymin + (j + 0.5) * tile_h
            yield Rect(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)
