"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.geometry import Rect, RectArray
from repro.histograms import GHHistogram


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


def random_rects(
    rng: np.random.Generator,
    n: int,
    *,
    extent: Rect = Rect.unit(),
    max_side: float = 0.05,
) -> RectArray:
    """Random rectangles fully inside ``extent`` (shared test helper)."""
    w = rng.uniform(0, max_side, size=n) * extent.width
    h = rng.uniform(0, max_side, size=n) * extent.height
    x0 = extent.xmin + rng.uniform(0, 1, size=n) * (extent.width - w)
    y0 = extent.ymin + rng.uniform(0, 1, size=n) * (extent.height - h)
    return RectArray(x0, y0, x0 + w, y0 + h)


def count_gh_builds(monkeypatch) -> list[tuple[str, int]]:
    """Record ``(dataset name, level)`` for every GH build from now on."""
    calls: list[tuple[str, int]] = []
    original = GHHistogram.build.__func__

    def counting(cls, dataset, level, *, extent=None):
        calls.append((dataset.name, level))
        return original(cls, dataset, level, extent=extent)

    monkeypatch.setattr(GHHistogram, "build", classmethod(counting))
    return calls


@pytest.fixture
def small_rects(rng) -> RectArray:
    return random_rects(rng, 200)


@pytest.fixture
def two_rect_sets(rng) -> tuple[RectArray, RectArray]:
    return random_rects(rng, 300), random_rects(rng, 400)
