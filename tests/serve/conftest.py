"""Shared fixtures for the serving front-door tests.

A small deterministic catalog keeps every test fast; anything that
needs scale builds its own datasets.
"""

import numpy as np
import pytest

from repro.datasets import SpatialDataset
from repro.geometry import Rect, RectArray
from tests.conftest import random_rects


@pytest.fixture(scope="module")
def catalog():
    """Three small datasets on the unit extent (module-scoped: read-only)."""
    rng = np.random.default_rng(20260808)
    return {
        name: SpatialDataset(name, random_rects(rng, 300), Rect.unit())
        for name in ("roads", "rivers", "parks")
    }


def unit_catalog(n, seed=20260808):
    """Four named datasets of ``n`` small rectangles on the unit extent."""
    rng = np.random.default_rng(seed)
    catalog = {}
    for name in ("roads", "rivers", "parks", "rail"):
        w = rng.uniform(0, 0.03, n)
        h = rng.uniform(0, 0.03, n)
        x0 = rng.uniform(0, 1, n) * (1 - w)
        y0 = rng.uniform(0, 1, n) * (1 - h)
        catalog[name] = SpatialDataset(name, RectArray(x0, y0, x0 + w, y0 + h), Rect.unit())
    return catalog


class FakeClock:
    """A manually advanced monotonic clock for deterministic tests."""

    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds
