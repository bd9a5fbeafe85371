"""Fused GH combine kernels: Equation 5 as batched array passes.

Equation 5 is a sum of elementwise products over cells,

    IP(a, b) = Σ_ij  Ca·Ob + Cb·Oa + Ha·Vb + Hb·Va,

so each of its four terms is a product of two whole planes and no
kernel loops over cells in Python.  Two kernels use that:

* :func:`fused_pair_estimates` stacks the four stat planes of k
  histograms into ``(k, cells)`` blocks (:func:`stack_gh`) and turns a
  *list of pairs* into a few broadcasted elementwise products plus a
  row-wise sum;
* :func:`fused_selectivity_matrix` answers *every pair i < j* of k
  same-grid histograms with two BLAS dot products per pair on views of
  the histograms' own plane blocks.  A GH file keeps its planes as the
  rows of one ``(4, cells)`` block in ``c, h, o, v`` order
  (:attr:`~repro.histograms.gh.GHHistogram.planes`), so ``[C|H]`` and
  ``[O|V]`` are contiguous runs of ``2·cells`` floats and

      IP(a, b) = [Ca|Ha]·[Ob|Vb] + [Cb|Hb]·[Oa|Va].

  Nothing is stacked and no self-join diagonal is computed: at level 7
  a stack of five files copies 2.5 MiB per call before any arithmetic,
  which costs more than the dots themselves.

**Numerics contract.**  The two kernels make *different* promises:

- :func:`fused_pair_estimates` is **bit-identical** to
  :meth:`GHHistogram.estimate_selectivity` per pair.  Each row's
  expression tree matches the scalar combine exactly, and numpy's
  pairwise summation of a contiguous row (``.sum(axis=1)``) performs
  the same reduction as the 1-D ``.sum()`` the scalar path uses, and
  tests assert equality with the unfused path.  It pays off only for
  many pairs at coarse levels: stacking copies every operand, so
  ``estimate_many`` combines pair at a time instead.
- :func:`fused_selectivity_matrix` routes through BLAS, which reorders
  the reduction; results agree with the pairwise path to ~1e-15
  relative — fine for the optimizer matrix, not for bit-identity
  contracts.  Use it where :func:`~repro.core.matrix.pairwise_selectivities`
  tolerances apply.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from ..runtime import checkpoint
from .gh import GHHistogram
from .grid import Grid

__all__ = [
    "GHStack",
    "stack_gh",
    "fused_pair_estimates",
    "fused_selectivity_matrix",
]

#: Pairs combined per fused block — bounds peak memory at
#: ``chunk × cells`` floats and keeps a cooperative checkpoint between
#: blocks so deadlines and fault hooks retain their granularity.
_PAIR_CHUNK = 64


@dataclass(frozen=True)
class GHStack:
    """The four Table 2 stat planes of k histograms, row-stacked."""

    grid: Grid
    counts: np.ndarray  #: (k,) int64 dataset cardinalities
    c: np.ndarray  #: (k, cells)
    o: np.ndarray  #: (k, cells)
    h: np.ndarray  #: (k, cells)
    v: np.ndarray  #: (k, cells)

    def __len__(self) -> int:
        return len(self.counts)


def stack_gh(histograms: Sequence[GHHistogram]) -> GHStack:
    """Stack k same-grid GH files into one ``(k, cells)`` block set."""
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
        c=np.stack([hist.c for hist in histograms]),
        o=np.stack([hist.o for hist in histograms]),
        h=np.stack([hist.h for hist in histograms]),
        v=np.stack([hist.v for hist in histograms]),
    )


def fused_pair_estimates(
    stack: GHStack, idx1: np.ndarray, idx2: np.ndarray
) -> np.ndarray:
    """Selectivity for each requested ``(idx1[p], idx2[p])`` pair.

    Bit-identical to calling ``estimate_selectivity`` per pair: the
    operand order inside each row matches the scalar combine (left
    histogram = ``idx1``), and pairs with an empty side answer 0.0
    without dividing.
    """
    idx1 = np.asarray(idx1, dtype=np.intp)
    idx2 = np.asarray(idx2, dtype=np.intp)
    if idx1.shape != idx2.shape:
        raise ValueError("idx1 and idx2 must have the same shape")
    pairs = len(idx1)
    ip = np.empty(pairs, dtype=np.float64)
    for start in range(0, pairs, _PAIR_CHUNK):
        checkpoint("gh.combine.fused")
        block = slice(start, start + _PAIR_CHUNK)
        i, j = idx1[block], idx2[block]
        # Same expression tree as GHHistogram.estimate_intersection_points,
        # broadcast over rows; the row-wise pairwise sum reduces each row
        # exactly like the scalar path's 1-D sum.
        terms = (
            stack.c[i] * stack.o[j]
            + stack.c[j] * stack.o[i]
            + stack.h[i] * stack.v[j]
            + stack.h[j] * stack.v[i]
        )
        ip[block] = terms.sum(axis=1)
    n1 = stack.counts[idx1]
    n2 = stack.counts[idx2]
    denominator = n1 * n2  # int64: exact below 2^63 pairs
    out = np.zeros(pairs, dtype=np.float64)
    populated = denominator > 0
    # (ip / 4) / (n1 * n2) — division order matches estimate_pairs /
    # estimate_selectivity, so the roundings are the scalar path's.
    out[populated] = (ip[populated] / 4.0) / denominator[populated]
    return out


def fused_selectivity_matrix(histograms: Sequence[GHHistogram]) -> list[float]:
    """Selectivity of every pair ``i < j`` of k same-grid GH files.

    Pairs come in :func:`itertools.combinations` order.  Each entry
    matches ``histograms[i].estimate_selectivity(histograms[j])`` to
    ~1e-15 relative (BLAS reorders the cell reduction) and does not
    depend on the pair's operand order; a pair with an empty side is 0.0.
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
        # [Ca|Ha]·[Ob|Vb] + [Cb|Hb]·[Oa|Va]: swapping a and b swaps the
        # two addends, which gives the same float (float + is commutative).
        ip = np.dot(xa, yb) + np.dot(xb, ya)
        # (ip / 4) / (n1 * n2): estimate_selectivity's division order.
        out.append(float(ip) / 4.0 / (a.count * b.count))
    return out
