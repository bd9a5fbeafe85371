"""Dataset wrapper used throughout the library.

A :class:`SpatialDataset` bundles a bulk rectangle array with a name and
a declared spatial extent (universe).  The extent matters: the paper's
parametric formula needs the universe area ``A`` and the histogram
schemes grid the universe, so it must be fixed per dataset pair — not
recomputed from whichever subset is at hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from ..errors import InvalidDatasetError
from ..geometry import Rect, RectArray, common_extent

__all__ = ["MutationToken", "SpatialDataset", "DatasetSummary"]


class MutationToken:
    """Monotonic version counter naming a dataset's mutation state.

    Every *sanctioned* in-place edit of a dataset's coordinate arrays
    must bump the token (:meth:`SpatialDataset.mark_mutated`); identity
    caches — the fingerprint memo, and through it every tier of the
    estimate/histogram caches — key on ``(dataset identity, version)``
    and treat a bump as total invalidation.  Unsanctioned mutations are
    the caller's contract violation; they are caught probabilistically
    by the periodic fingerprint audit, not deterministically.

    Mutable on purpose (the enclosing dataclass is frozen): the token
    is the one channel through which an otherwise-immutable dataset
    acknowledges that numpy arrays can always be written.
    """

    __slots__ = ("version",)

    def __init__(self) -> None:
        self.version = 0

    def bump(self) -> int:
        """Advance to the next version and return it."""
        self.version += 1
        return self.version

    def __repr__(self) -> str:
        return f"MutationToken(version={self.version})"


@dataclass(frozen=True, slots=True)
class DatasetSummary:
    """First-order statistics of a dataset — the paper's Equation 1 inputs."""

    count: int
    coverage: float  #: sum of item areas / extent area (C_k)
    avg_width: float  #: W_k
    avg_height: float  #: H_k
    extent_area: float  #: A


@dataclass(frozen=True)
class SpatialDataset:
    """A named collection of MBRs within a declared extent."""

    name: str
    rects: RectArray
    extent: Rect = field(default_factory=Rect.unit)
    #: Mutation token — excluded from equality/repr.  Shared by every
    #: view over the same arrays (:meth:`with_extent`); a dataset with
    #: arrays of its own gets a fresh one (:meth:`subset`).
    token: MutationToken = field(
        default_factory=MutationToken, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.extent.width <= 0 or self.extent.height <= 0:
            raise InvalidDatasetError("dataset extent must have positive area")
        if len(self.rects):
            bounds = self.rects.bounds()
            if not self.extent.contains_rect(bounds):
                raise InvalidDatasetError(
                    f"dataset {self.name!r} has rectangles outside its extent "
                    f"(bounds {bounds.as_tuple()}, extent {self.extent.as_tuple()})"
                )

    # ------------------------------------------------------------------
    @classmethod
    def from_rects(
        cls, name: str, rects: RectArray, extent: Optional[Rect] = None
    ) -> "SpatialDataset":
        """Wrap an array, defaulting the extent to the data bounds."""
        if extent is None:
            extent = common_extent(rects) if len(rects) else Rect.unit()
        return cls(name=name, rects=rects, extent=extent)

    def __len__(self) -> int:
        return len(self.rects)

    @property
    def count(self) -> int:
        return len(self.rects)

    # ------------------------------------------------------------------
    def summary(self) -> DatasetSummary:
        """The Aref–Samet parameters ``(N, C, W, H)`` plus extent area."""
        n = len(self.rects)
        area = self.extent.area
        if n == 0:
            return DatasetSummary(0, 0.0, 0.0, 0.0, area)
        return DatasetSummary(
            count=n,
            coverage=self.rects.total_area() / area,
            avg_width=float(self.rects.widths().mean()),
            avg_height=float(self.rects.heights().mean()),
            extent_area=area,
        )

    def subset(self, indices: np.ndarray, suffix: str = "subset") -> "SpatialDataset":
        """A new dataset over the selected rows (same extent).

        The derived dataset carries a *fresh* token: it has its own
        arrays and its own mutation history.
        """
        return replace(
            self,
            name=f"{self.name}.{suffix}",
            rects=self.rects[indices],
            token=MutationToken(),
        )

    def with_extent(self, extent: Rect) -> "SpatialDataset":
        """Re-declare the universe (must still contain all data).

        Shares the coordinate arrays *and* the token: an in-place edit
        plus :meth:`mark_mutated` on either object invalidates both
        fingerprint memos.  The memo itself is per object (see
        :meth:`_store_fingerprint`), so the view never inherits the
        parent's digest, whose extent differs.
        """
        return replace(self, extent=extent)

    # ------------------------------------------------------------------
    def mark_mutated(self) -> None:
        """Declare an in-place edit of the coordinate arrays.

        Every sanctioned write path must call this (directly or via
        helpers like :func:`repro.histograms.maintenance.apply_updates`)
        so that fingerprint memos and every cache keyed on them are
        invalidated.  Mutating the arrays *without* calling this leaves
        stale identities behind; the periodic audit in
        :mod:`repro.perf.fingerprint` exists to catch exactly that.

        A bump leaves the fingerprint cold: the next
        :func:`~repro.perf.fingerprint.dataset_fingerprint` folds the
        arrays again.  ``apply_updates(..., dataset=, republish_key=)``
        bumps and then folds on the write path, so the dataset's reads
        after a maintained write find the new digest already memoized.
        """
        self.token.bump()

    def _cached_fingerprint(self) -> "str | None":
        """The memoized fingerprint digest, if still current."""
        memo = self.__dict__.get("_fingerprint_memo")
        if memo is not None and memo[0] == self.token.version:
            return memo[1]
        return None

    def _store_fingerprint(self, version: int, digest: str) -> None:
        """Memoize ``digest`` computed at token ``version``.

        Dropped silently when the token has moved on since the fold
        started (a concurrent ``mark_mutated``) — a stale digest must
        never be served.  Stored outside the dataclass fields so
        ``dataclasses.replace`` never copies it to derived datasets.
        """
        if version == self.token.version:
            object.__setattr__(self, "_fingerprint_memo", (version, digest))

    def __repr__(self) -> str:
        return f"SpatialDataset({self.name!r}, n={len(self.rects)})"
