"""Statistics catalog: build once, estimate many times.

This is the deployment shape the paper envisions — an SDBMS maintains a
histogram file per dataset offline, and the query optimizer consults the
files at planning time without touching the data.  The catalog is a
name-keyed view over a :class:`~repro.perf.cache.HistogramCache`: the
cache owns the histogram files (content-addressed, so re-registered data
never reads stale statistics) and, given a
:class:`~repro.store.ArtifactCatalog`, persists them.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..datasets import SpatialDataset
from ..geometry import Rect, common_extent
from ..perf.cache import HistogramCache
from .estimator import BasicGHEstimator, GHEstimator, PHEstimator, PreparedEstimator

__all__ = ["StatisticsCatalog"]


class StatisticsCatalog:
    """Registry of datasets plus their per-dataset estimator summaries.

    Parameters
    ----------
    estimator:
        The prepared estimator whose summaries are served (default: GH
        at level 7, the paper's recommended configuration).
    cache:
        The :class:`~repro.perf.cache.HistogramCache` that GH, PH and
        basic-GH summaries resolve through (default: a private one).
        Share it with other serving components, or give it a ``store``
        (``HistogramCache(store=ArtifactCatalog(root))``) to persist the
        histogram files across processes.  Other estimators (parametric)
        prepare their four first-order statistics on each request.
    """

    def __init__(
        self,
        estimator: Optional[PreparedEstimator] = None,
        *,
        cache: "HistogramCache | None" = None,
    ) -> None:
        self.estimator = estimator if estimator is not None else GHEstimator(level=7)
        self.cache = cache if cache is not None else HistogramCache()
        self._datasets: Dict[str, SpatialDataset] = {}
        self._extent: Rect | None = None

    # ------------------------------------------------------------------
    def register(self, dataset: SpatialDataset) -> None:
        """Add a dataset. All registered datasets must share one universe:
        the catalog extent grows to cover every registration."""
        self._datasets[dataset.name] = dataset
        self._extent = dataset.extent if self._extent is None else Rect(
            min(self._extent.xmin, dataset.extent.xmin),
            min(self._extent.ymin, dataset.extent.ymin),
            max(self._extent.xmax, dataset.extent.xmax),
            max(self._extent.ymax, dataset.extent.ymax),
        )

    def dataset(self, name: str) -> SpatialDataset:
        """Look up a registered dataset by name."""
        try:
            return self._datasets[name]
        except KeyError:
            raise KeyError(f"dataset {name!r} is not registered") from None

    @property
    def names(self) -> list[str]:
        return sorted(self._datasets)

    @property
    def extent(self) -> Rect:
        if self._extent is None:
            raise ValueError("catalog has no registered datasets")
        return self._extent

    # ------------------------------------------------------------------
    def summary_for(self, name: str) -> Any:
        """The per-dataset summary: a cached, stored or freshly built
        histogram file, or a freshly prepared non-histogram one."""
        dataset = self.dataset(name)
        if isinstance(self.estimator, (GHEstimator, PHEstimator, BasicGHEstimator)):
            return self.cache.get_or_build(
                dataset, self.estimator.name, self.estimator.level, extent=self.extent
            )
        return self.estimator.prepare(dataset, extent=self.extent)

    def estimate(self, name1: str, name2: str) -> float:
        """Estimated selectivity between two registered datasets."""
        return self.estimator.combine(self.summary_for(name1), self.summary_for(name2))

    def estimate_pairs(self, name1: str, name2: str) -> float:
        """Estimated join result size between two registered datasets."""
        return self.estimate(name1, name2) * len(self.dataset(name1)) * len(
            self.dataset(name2)
        )


def catalog_for(
    datasets: list[SpatialDataset], estimator: Optional[PreparedEstimator] = None
) -> StatisticsCatalog:
    """Convenience constructor registering several datasets at once,
    normalizing them to one shared extent."""
    catalog = StatisticsCatalog(estimator)
    if datasets:
        extent = common_extent(*(d.rects for d in datasets))
        for dataset in datasets:
            catalog.register(dataset.with_extent(extent))
    return catalog
