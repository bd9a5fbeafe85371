"""Combine kernels: Equations 3 and 5 as dot products over plane blocks.

Equation 5 (GH) and each Equation 1 case of Equation 3 (PH) are sums
over cells of products of two files' per-cell values.  Each file keeps
those values as the rows of one C-contiguous plane block, ordered so
that every such sum is

    x_a·y_b + x_b·y_a

over the two contiguous halves ``x`` and ``y`` of a four-row group:

* GH (rows ``c, h, o, v``): ``x = [C|H]`` and ``y = [O|V]``, and the
  sum is Equation 5's ``IP(a, b) = Σ Ca·Ob + Cb·Oa + Ha·Vb + Hb·Va``;
* PH (each of the Cont and Isect groups, rows ``num, xsum, cov,
  ysum`` with ``xsum = ΣW/CW`` and ``ysum = ΣH/CH``): ``x = [Num|X]``
  and ``y = [Cov|Y]``, and the sum is Equation 1 applied in every cell,
  because ``N1·N2·(x1·y2 + y1·x2)/A = X1·Y2 + Y1·X2``.

:func:`cross_dot` is the one kernel every per-pair combine calls:
``GHHistogram.estimate_intersection_points`` once, and
``PHHistogram.estimate_pairs`` once for all four cases, broadcast over
the two files' groups.  Serve, ``estimate``, ``estimate_many``, the
memo and the store tiers all combine through those methods.

**Numerics contract.**

- :func:`cross_dot` runs each half-by-half product as BLAS dots of at
  most :data:`_DOT_CHUNK` floats and sums their partials along the
  chunk axis, an order fixed by the chunk count.  OpenBLAS splits a
  longer ``ddot`` across threads, and the split changes the rounding;
  a chunk this short is one single-threaded dot, so an answer does not
  depend on the BLAS thread count.  Swapping ``a`` and ``b`` swaps the
  two addends, which gives the same float.
- :func:`fused_pair_estimates` loops over pairs through the kernel, so
  it is **bit-identical** to ``estimate_selectivity`` per pair.
- :func:`fused_selectivity_matrix` answers every pair ``i < j`` with
  two whole-half ``np.dot`` calls.  At levels 0–6 a half (``2·4^h``
  floats) is one chunk, so each entry ``==`` the per-pair combine.  At
  level ≥ 7 BLAS may thread and reorder the whole-half dot, so entries
  agree to ~1e-15 relative and may differ between BLAS thread counts;
  chunking the matrix cost more planning throughput than a chunked
  dot saves (see DESIGN §20).  ``engine="pairwise"`` of
  :func:`~repro.core.matrix.pairwise_selectivities` gives the per-pair
  floats at every level.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..runtime import checkpoint
from .grid import Grid

if TYPE_CHECKING:
    from .gh import GHHistogram

__all__ = [
    "GHStack",
    "cross_dot",
    "stack_gh",
    "fused_pair_estimates",
    "fused_selectivity_matrix",
]

#: Floats per BLAS dot.  OpenBLAS 0.3.x splits a ``ddot`` across threads
#: above 10 000 elements; a power of two, so it divides every half of
#: ``2·4^h`` floats that is longer than one chunk.
_DOT_CHUNK = 8192

#: Pairs :func:`fused_pair_estimates` combines between cooperative
#: checkpoints, so deadlines and fault hooks keep their granularity.
_PAIR_CHUNK = 64


def _dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x·y`` over the last axis: one BLAS dot per chunk of at most
    :data:`_DOT_CHUNK` floats, the partials summed along the chunk axis."""
    n = x.shape[-1]
    if n <= _DOT_CHUNK:
        return np.vecdot(x, y)
    chunks = (n // _DOT_CHUNK, _DOT_CHUNK)
    x = x.reshape(*x.shape[:-1], *chunks)
    y = y.reshape(*y.shape[:-1], *chunks)
    return np.vecdot(x, y).sum(axis=-1)


def cross_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x_a·y_b + x_b·y_a`` for row groups ``a`` and ``b`` of shape ``(..., 2, n)``.

    ``[..., 0, :]`` is a group's ``x`` half and ``[..., 1, :]`` its
    ``y`` half; leading axes broadcast, one sum per broadcast position.
    """
    return _dot(a[..., 0, :], b[..., 1, :]) + _dot(b[..., 0, :], a[..., 1, :])


@dataclass(frozen=True)
class GHStack:
    """The plane blocks of k same-grid GH files, stacked ``(k, 4, cells)``."""

    grid: Grid
    counts: np.ndarray  #: (k,) int64 dataset cardinalities
    planes: np.ndarray  #: (k, 4, cells) in ``c, h, o, v`` row order

    def __len__(self) -> int:
        return len(self.counts)

    c = property(lambda self: self.planes[:, 0], doc="(k, cells) C planes")
    h = property(lambda self: self.planes[:, 1], doc="(k, cells) H planes")
    o = property(lambda self: self.planes[:, 2], doc="(k, cells) O planes")
    v = property(lambda self: self.planes[:, 3], doc="(k, cells) V planes")


def stack_gh(histograms: Sequence[GHHistogram]) -> GHStack:
    """Stack k same-grid GH files into one ``(k, 4, cells)`` block."""
    if not histograms:
        raise ValueError("need at least one histogram to stack")
    grid = histograms[0].grid
    for hist in histograms[1:]:
        if hist.grid != grid:
            raise ValueError(
                "GH histograms must share the same grid (extent and level)"
            )
    return GHStack(
        grid=grid,
        counts=np.array([hist.count for hist in histograms], dtype=np.int64),
        planes=np.stack([hist.planes for hist in histograms]),
    )


def fused_pair_estimates(
    stack: GHStack, idx1: np.ndarray, idx2: np.ndarray
) -> np.ndarray:
    """Selectivity for each requested ``(idx1[p], idx2[p])`` pair.

    Bit-identical to calling ``estimate_selectivity`` per pair: each
    pair goes through :func:`cross_dot` and the same divisions, and
    pairs with an empty side answer 0.0 without dividing.
    """
    idx1 = np.asarray(idx1, dtype=np.intp)
    idx2 = np.asarray(idx2, dtype=np.intp)
    if idx1.shape != idx2.shape:
        raise ValueError("idx1 and idx2 must have the same shape")
    groups = stack.planes.reshape(len(stack), 2, -1)  # [C|H], [O|V] per file
    counts = stack.counts.tolist()
    out = np.zeros(len(idx1), dtype=np.float64)
    for position, (i, j) in enumerate(zip(idx1.tolist(), idx2.tolist())):
        if position % _PAIR_CHUNK == 0:
            checkpoint("gh.combine.fused")
        if counts[i] and counts[j]:
            # (ip / 4) / (n1 * n2): estimate_selectivity's division order.
            ip = float(cross_dot(groups[i], groups[j]))
            out[position] = ip / 4.0 / (counts[i] * counts[j])
    return out


def fused_selectivity_matrix(histograms: Sequence[GHHistogram]) -> list[float]:
    """Selectivity of every pair ``i < j`` of k same-grid GH files.

    Pairs come in :func:`itertools.combinations` order.  Each entry
    ``==`` ``histograms[i].estimate_selectivity(histograms[j])`` at
    levels 0–6 and matches it to ~1e-15 relative above (the module
    docstring has why); it does not depend on the pair's operand order,
    and a pair with an empty side is 0.0.
    """
    for hist in histograms[1:]:
        if hist.grid != histograms[0].grid:
            raise ValueError(
                "GH histograms must share the same grid (extent and level)"
            )
    checkpoint("gh.combine.fused")
    # ([C|H], [O|V]) per file: rows 0-1 and 2-3 of its C-contiguous
    # block, so both reshapes are views.
    halves = [(hist.planes[:2].reshape(-1), hist.planes[2:].reshape(-1)) for hist in histograms]
    out: list[float] = []
    for (a, (xa, ya)), (b, (xb, yb)) in combinations(zip(histograms, halves), 2):
        if a.count == 0 or b.count == 0:
            out.append(0.0)
            continue
        # [Ca|Ha]·[Ob|Vb] + [Cb|Hb]·[Oa|Va] as whole-half dots: the
        # cross_dot sum wherever a half is one chunk (levels 0-6).
        ip = np.dot(xa, yb) + np.dot(xb, ya)
        # (ip / 4) / (n1 * n2): estimate_selectivity's division order.
        out.append(float(ip) / 4.0 / (a.count * b.count))
    return out
