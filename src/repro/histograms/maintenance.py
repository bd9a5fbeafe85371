"""Incremental maintenance of histogram files.

A production SDBMS cannot rebuild statistics from scratch on every
insert/delete.  The GH statistics (and basic GH's raw counts) are
*additive*: every cell value is a sum of independent per-rectangle
contributions, so the histogram of a modified dataset is

    H(D + added - removed) = H(D) + H(added) - H(removed)

computed over the same grid.  ``apply_updates`` implements exactly that
(plus a numerical floor at zero for float round-off).

PH is deliberately *not* supported.  Its per-cell planes are sums (the
width and height sums replaced Table 1's averages), but the dataset-wide
``AvgSpan`` is a mean over the boundary-crossing MBRs, an unknown
membership that cannot be updated without the raw data.  This asymmetry
is a practical advantage of GH beyond the paper's accuracy results, and
the ablation suite exercises it.

**Catalog coherence.**  A mutated dataset has a new fingerprint, so its
old on-disk artifact in a :class:`~repro.store.ArtifactCatalog` can
never be *served* for the new data — but it would linger as garbage
that ``verify --rebuild`` cannot reproduce.  Both maintenance
operations therefore accept the store plus the affected keys: stale
input keys are invalidated and the maintained result may be republished
under its new key, keeping the catalog an honest mirror of live data.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, TypeVar, Union

import numpy as np

from ..geometry import RectArray
from ..runtime import checkpoint
from .file import histogram_parts
from .gh import GHHistogram
from .gh_basic import BasicGHHistogram

if TYPE_CHECKING:
    from ..datasets import SpatialDataset as SpatialDatasetT
    from ..perf.cache import CacheKey
    from ..store import ArtifactCatalog

__all__ = ["apply_updates", "merge_histograms"]

AdditiveHistogram = Union[GHHistogram, BasicGHHistogram]
H = TypeVar("H", GHHistogram, BasicGHHistogram)


def _check_supported(hist) -> None:
    if type(hist) not in (GHHistogram, BasicGHHistogram):
        raise TypeError(
            f"{type(hist).__name__} does not support incremental maintenance "
            "(PH's AvgSpan is a mean over unknown members — rebuild instead)"
        )


def _from_stats(like: AdditiveHistogram, count: int, stats: np.ndarray) -> AdditiveHistogram:
    """A histogram of ``like``'s scheme and grid over its stacked ``stats``."""
    if isinstance(like, GHHistogram):
        return GHHistogram._from_planes(like.grid, count, stats)
    c, i, h, v = stats
    return BasicGHHistogram(grid=like.grid, count=count, c=c, i=i, h=h, v=v)


def _sync_store(
    store: "ArtifactCatalog | None",
    stale_keys: "tuple[CacheKey, ...]",
    republish_key: "CacheKey | None",
    result: AdditiveHistogram,
) -> None:
    """Invalidate stale catalog entries, then publish the maintained one."""
    if store is None:
        if stale_keys or republish_key is not None:
            raise ValueError("stale/republish keys need a store to act on")
        return
    for key in stale_keys:
        store.invalidate(key)  # False (already gone) is fine
    if republish_key is not None:
        store.put_histogram(republish_key, result)


def apply_updates(
    hist: H,
    *,
    added: RectArray | None = None,
    removed: RectArray | None = None,
    store: "ArtifactCatalog | None" = None,
    stale_key: "CacheKey | None" = None,
    republish_key: "CacheKey | None" = None,
    dataset: "SpatialDatasetT | None" = None,
) -> H:
    """A new histogram reflecting inserted and/or deleted rectangles.

    ``removed`` must contain the exact rectangles that were deleted
    (the caller — e.g. a table heap — knows them); removing rectangles
    never indexed produces a histogram that no longer matches any
    dataset, which this function guards against only via the
    non-negativity floor.

    When ``store`` is given, ``stale_key`` (the input histogram's
    catalog key) is invalidated so the pre-mutation artifact cannot
    linger, and ``republish_key`` (the *mutated* dataset's key — the
    caller computes it, having the data) publishes the maintained
    result atomically.  Passing keys without a store is an error.

    When ``dataset`` is given (the live dataset whose arrays the caller
    is editing in place alongside this histogram), its mutation token is
    bumped via :meth:`~repro.datasets.base.SpatialDataset.mark_mutated`
    — this is the sanctioned write path, so fingerprint memos and every
    estimate cached under the old identity are invalidated in the same
    operation that maintains the statistics.  With ``dataset`` alone the
    fingerprint is left cold: the caller may still edit the arrays.

    With ``dataset`` *and* ``republish_key``, the caller has finished
    editing: the key it minted names the edited arrays.  The token is
    bumped once, the edited arrays are folded here, on the write path,
    and the digest stays memoized at the new version, so the next read
    of the dataset finds its identity warm (a memo-lane answer in the
    server) instead of folding it again on a worker.  A key whose
    fingerprint is not that digest raises :class:`ValueError` before
    anything is invalidated or published: publishing maintained
    statistics under another dataset's key would serve them for data
    they do not describe.
    """
    _check_supported(hist)
    hist_cls = type(hist)
    from ..datasets import SpatialDataset
    from ..perf.fingerprint import dataset_fingerprint

    # One copy of the stacked planes (GH: its block), updated in place:
    # x + d and x - d round exactly as x + (±1.0 * d), with no temporary.
    stats = np.array(histogram_parts(hist)[1], dtype=np.float64)
    count = hist.count

    for rects, sign, combine in ((added, 1, np.add), (removed, -1, np.subtract)):
        if rects is None or len(rects) == 0:
            continue
        checkpoint("maintenance.delta")
        delta_ds = SpatialDataset("delta", rects, hist.grid.extent)
        delta = hist_cls.build(delta_ds, hist.grid.level, extent=hist.grid.extent)
        combine(stats, histogram_parts(delta)[1], out=stats)
        count += sign * len(rects)

    if count < 0:
        raise ValueError("more rectangles removed than the histogram contains")
    # Float round-off can leave tiny negatives after removals.
    np.maximum(stats, 0.0, out=stats)
    result = _from_stats(hist, count, stats)
    if dataset is not None:
        dataset.mark_mutated()
        if republish_key is not None:
            digest = dataset_fingerprint(dataset)
            if republish_key.fingerprint != digest:
                raise ValueError(
                    f"republish_key fingerprint {republish_key.fingerprint} does not "
                    f"name dataset {dataset.name!r} (fingerprint {digest})"
                )
    _sync_store(store, (stale_key,) if stale_key is not None else (), republish_key, result)
    return result


def merge_histograms(
    first: H,
    second: H,
    *,
    store: "ArtifactCatalog | None" = None,
    stale_keys: "tuple[CacheKey, ...]" = (),
    republish_key: "CacheKey | None" = None,
) -> H:
    """The histogram of the union (concatenation) of two datasets.

    Both inputs must be the same scheme on the same grid.  Useful for
    parallel builds (shard the data, build per shard, merge) and for
    maintaining statistics of partitioned tables.

    When ``store`` is given, every key in ``stale_keys`` (typically the
    two inputs', when the merge supersedes the partitions) is
    invalidated and ``republish_key`` (the union dataset's key)
    publishes the merged result — same contract as
    :func:`apply_updates`.
    """
    _check_supported(first)
    if type(first) is not type(second):
        raise TypeError("cannot merge histograms of different schemes")
    if first.grid != second.grid:
        raise ValueError("cannot merge histograms on different grids")
    # One allocation: the sum of the two stacked plane sets.
    merged = histogram_parts(first)[1] + histogram_parts(second)[1]
    result = _from_stats(first, first.count + second.count, merged)
    _sync_store(store, tuple(stale_keys), republish_key, result)
    return result
