"""Scatter-add kernel and build-path switch for the histogram builds.

Every histogram build in this package reduces to the same primitive:
accumulate per-incidence weights into a flat per-cell array
(``out[idx[k]] += w[k]`` with repeated indices).  Two numpy backends
implement it:

* ``np.bincount(idx, weights=w, minlength=cells)`` — one C pass over the
  incidences plus a dense pass over the cells (allocate, zero-fill, add
  into ``out``);
* ``np.add.at(out, idx, w)`` — indexed accumulation touching only the
  addressed cells.

Which wins is numpy-version-dependent.  On numpy ≥ 2.x, ``add.at``
dispatches to an optimized indexed inner loop and measures *faster than
bincount at every density we benchmarked* (0.6–0.95× its time from
n = cells/2 up to n = 7 × cells, uniform-random and build-shaped
indices alike), so it is the default backend there.  On older numpys,
``add.at`` ran an element-at-a-time ufunc inner loop and ``bincount``
was 5–10× faster; those versions default to ``bincount`` whenever the
scatter is at least as large as the grid (below that the dense
allocate/zero/merge passes dominate and ``add.at`` wins everywhere).

Both backends visit incidences in input order, so per-bin additions
happen in the same sequence and the results are **bit-identical** —
switching the backend cannot change any estimate (builds scatter into
zero-initialized arrays, and ``0.0 + x == x`` exactly).

The real build-time lever is not the scatter backend but the
*index-expansion machinery* around it: the optimized build path computes
cell ranges once per build and shares one axis-run expansion across
every statistic, where the legacy path re-derived them per stage.  The
``add_at_baseline`` context manager restores the full legacy path —
per-stage expansion *and* the ``np.add.at`` backend — so an A/B compares
the shipped build against the faithful pre-optimization implementation
(``tests/histograms/test_scatter.py`` gates GH ≥ 1.5× and PH ≥ 1.2× at
levels 6–7).  It exists for that A/B and for equivalence tests, not for
production use.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np

__all__ = ["scatter_add", "add_at_baseline", "fast_build_enabled"]

#: ``bincount`` is used when incidences ≥ cells / _DENSITY_FACTOR; below
#: that, the dense zero-fill + merge passes dominate and ``add.at`` wins.
_DENSITY_FACTOR = 1

#: numpy ≥ 2.x ships an indexed ``add.at`` fast path that beats
#: ``bincount`` at every measured density, so ``bincount`` is only the
#: default on the older element-at-a-time numpys.
_use_bincount = int(np.__version__.split(".")[0]) < 2
_fast_build = True


def scatter_add(out: np.ndarray, idx: np.ndarray, weights: np.ndarray | None = None) -> None:
    """``out[idx] += weights`` with repeated-index accumulation.

    ``weights=None`` counts incidences (adds 1.0 per index).  ``out`` is
    a flat float64 array; ``idx`` holds non-negative cell ids below
    ``out.size``.
    """
    cells = out.size
    n = idx.size
    if n == 0:
        return
    if _use_bincount and n * _DENSITY_FACTOR >= cells:
        out += np.bincount(idx, weights=weights, minlength=cells)
    elif weights is None:
        np.add.at(out, idx, 1.0)
    else:
        np.add.at(out, idx, weights)


def fast_build_enabled() -> bool:
    """Whether builds should take the optimized (shared-expansion) path."""
    return _fast_build


@contextmanager
def add_at_baseline() -> Iterator[None]:
    """Restore the legacy build path for the duration (benchmarking only).

    Forces both the ``np.add.at`` scatter backend and the per-stage
    index expansion the builds used before the serving-path optimization
    — i.e. the faithful pre-optimization implementation, which the
    optimized path must match bit-for-bit.
    """
    global _use_bincount, _fast_build
    previous = (_use_bincount, _fast_build)
    _use_bincount = False
    _fast_build = False
    try:
        yield
    finally:
        _use_bincount, _fast_build = previous
