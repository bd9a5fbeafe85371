"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import asyncio
import functools
from typing import Any, Callable

import numpy as np
import pytest

import repro.histograms.file as file_mod
import repro.perf.cache as cache_mod
from repro.geometry import Rect, RectArray
from repro.histograms import GHHistogram
from repro.histograms.file import HISTOGRAM_SCHEMES
from repro.store import ArtifactCatalog


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


class LoopBlockingCall(AssertionError):
    """A blocking call made on the thread of a running event loop."""


def _on_loop() -> bool:
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        return False
    return True


def _off_loop(name: str, func: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(func)
    def guarded(*args: Any, **kwargs: Any) -> Any:
        if _on_loop():
            raise LoopBlockingCall(f"{name} called on an event loop's thread")
        return func(*args, **kwargs)

    return guarded


class _GuardedMemmap(np.memmap):
    def __new__(cls, *args: Any, **kwargs: Any) -> "_GuardedMemmap":
        if _on_loop():
            raise LoopBlockingCall("np.memmap called on an event loop's thread")
        return super().__new__(cls, *args, **kwargs)


@pytest.fixture
def loop_guard(monkeypatch) -> None:
    """Make the calls that build, unpack or read a histogram file raise
    :class:`LoopBlockingCall` when made on a thread whose event loop is
    running: every scheme's ``build``, ``ArtifactCatalog.load_histogram``,
    ``unpack_histogram``, ``np.load`` and ``np.memmap``.  Worker and
    executor threads run no loop, so the serving stack's off-loop work
    is unaffected.  Arrays mapped under the guard are instances of a
    ``np.memmap`` subclass, so create mapped files inside the test."""
    for scheme, cls in HISTOGRAM_SCHEMES.items():
        build = _off_loop(f"{scheme} build", cls.build.__func__)
        monkeypatch.setattr(cls, "build", classmethod(build))
    monkeypatch.setattr(
        ArtifactCatalog, "load_histogram",
        _off_loop("load_histogram", ArtifactCatalog.load_histogram),
    )
    for module in (file_mod, cache_mod):
        monkeypatch.setattr(
            module, "unpack_histogram",
            _off_loop("unpack_histogram", file_mod.unpack_histogram),
        )
    monkeypatch.setattr(np, "load", _off_loop("np.load", np.load))
    monkeypatch.setattr(np, "memmap", _GuardedMemmap)
