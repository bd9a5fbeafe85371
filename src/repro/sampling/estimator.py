"""Sampling-based join-selectivity estimation (paper Section 2).

The estimator draws a sample from each input, builds an R-tree per
sample, joins the samples with the synchronized-traversal R-tree join,
and reads the sample join selectivity off as the estimate: with samples
of fractions ``a`` and ``b``, the paper scales the sample join *size*
``R`` up by ``1 / (a * b)`` — equivalently, the *selectivity* estimate is
simply ``R / (n1_sample * n2_sample)``, since selectivity is scale-free.

A fraction of ``1.0`` uses the full dataset (the paper's ``100`` side of
the one-sided combinations such as ``1/100``).

:meth:`SamplingJoinEstimator.estimate_detailed` additionally reports the
timing breakdown (pick / tree build / join) needed for the paper's
``Est. Time 1`` (R-trees unavailable — the estimator pays for its sample
trees, the join pays for full trees) and ``Est. Time 2`` (full R-trees
already exist) metrics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from typing import TYPE_CHECKING

from ..datasets import SpatialDataset
from ..rtree import DEFAULT_MAX_ENTRIES, FlatRTree, flat_join_count, flat_load_str
from ..runtime import checkpoint
from .pickers import SAMPLING_METHODS, pick_sample_indices

if TYPE_CHECKING:
    from ..perf.cache import FlatTreeCache
    from ..predicates.base import JoinPredicate

__all__ = [
    "SampleJoinTiming",
    "SamplingEstimate",
    "SamplingJoinEstimator",
    "ConfidenceEstimate",
]


@dataclass(frozen=True, slots=True)
class ConfidenceEstimate:
    """Mean selectivity estimate with a normal-approximation interval."""

    mean: float
    std_error: float
    lower: float
    upper: float
    repeats: int

    def contains(self, value: float) -> bool:
        """True if ``value`` lies inside the interval."""
        return self.lower <= value <= self.upper

    @property
    def relative_halfwidth(self) -> float:
        """Interval half-width as a fraction of the mean (inf at mean 0)."""
        if self.mean == 0:
            return float("inf") if self.upper > 0 else 0.0
        return (self.upper - self.lower) / 2 / self.mean


@dataclass(frozen=True, slots=True)
class SampleJoinTiming:
    """Wall-clock breakdown of one sampling estimation run (seconds)."""

    pick_seconds: float
    build_seconds: float
    join_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.pick_seconds + self.build_seconds + self.join_seconds


@dataclass(frozen=True, slots=True)
class SamplingEstimate:
    """Full output of one sampling estimation run."""

    selectivity: float
    sample_pairs: int
    sample_size_1: int
    sample_size_2: int
    timing: SampleJoinTiming


class SamplingJoinEstimator:
    """Estimate join selectivity by joining samples of the two datasets.

    Parameters
    ----------
    method:
        ``"rs"``, ``"rswr"`` or ``"ss"`` (Section 2's three techniques).
    fraction1 / fraction2:
        Sample fractions in ``(0, 1]`` for each input (``1.0`` = use all).
    seed:
        RNG seed for RSWR draws (ignored by the deterministic RS/SS).
    max_entries:
        Node capacity for the sample R-trees.
    join_method:
        ``"flat"`` (default: bulk-load :class:`~repro.rtree.flat.FlatRTree`
        structures on the samples and run the vectorized synchronized
        R-tree join, the kernel the reference join of
        :func:`repro.eval.harness.prepare_pair` runs too) or ``"sweep"``
        (plane sweep directly on the samples, the alternative the paper
        dismisses in Section 2 — kept for the ablation benchmark).
    tree_cache:
        Optional :class:`~repro.perf.cache.FlatTreeCache`.  With the
        ``"flat"`` engine, sample trees are fetched through it — any
        configuration that re-picks the same rectangles (a deterministic
        RS/SS pick at any fraction, a repeated seed, or the paper's
        "Est. Time 2" scenario where the full-dataset trees already
        exist) then reuses bulk loads instead of repeating them.  Keys
        are content-addressed, so hits cross estimator instances.
    predicate:
        Optional :class:`~repro.predicates.JoinPredicate`.  The sample
        join then counts pairs under that predicate via its exact engine
        (:func:`repro.predicates.joins.predicate_join_count`) — the
        scale-up argument is predicate-free, so the same ``R / (n₁·n₂)``
        read-off estimates any predicate's selectivity.  ``None`` (and
        the ``Intersects`` predicate) keep the original intersection
        path untouched, bit for bit.
    """

    def __init__(
        self,
        method: str = "rswr",
        fraction1: float = 0.1,
        fraction2: float = 0.1,
        *,
        seed: int | None = 0,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        join_method: str = "flat",
        tree_cache: "FlatTreeCache | None" = None,
        predicate: "JoinPredicate | None" = None,
    ) -> None:
        if method not in SAMPLING_METHODS:
            raise ValueError(f"unknown sampling method {method!r}")
        for fraction in (fraction1, fraction2):
            if not 0 < fraction <= 1:
                raise ValueError(f"fractions must be in (0, 1], got {fraction}")
        if join_method not in ("flat", "sweep"):
            raise ValueError(
                f"join_method must be 'flat' or 'sweep', got {join_method!r}"
            )
        if predicate is not None and not hasattr(predicate, "pair_mask"):
            raise TypeError(f"predicate must be a JoinPredicate, got {predicate!r}")
        self.method = method
        self.fraction1 = fraction1
        self.fraction2 = fraction2
        self.seed = seed
        self.max_entries = max_entries
        self.join_method = join_method
        self.tree_cache = tree_cache
        self.predicate = predicate

    def _predicate_active(self) -> bool:
        """Whether the sample join must run a non-default predicate."""
        return self.predicate is not None and self.predicate.key != "intersects"

    def __repr__(self) -> str:
        extra = f", predicate={self.predicate!r}" if self._predicate_active() else ""
        return (
            f"SamplingJoinEstimator(method={self.method!r}, "
            f"fractions=({self.fraction1}, {self.fraction2}){extra})"
        )

    # ------------------------------------------------------------------
    def estimate(self, ds1: SpatialDataset, ds2: SpatialDataset) -> float:
        """Point estimate of the join selectivity."""
        return self.estimate_detailed(ds1, ds2).selectivity

    def estimate_detailed(
        self, ds1: SpatialDataset, ds2: SpatialDataset
    ) -> SamplingEstimate:
        """Estimate with sample sizes and the timing breakdown."""
        if len(ds1) == 0 or len(ds2) == 0:
            return SamplingEstimate(0.0, 0, 0, 0, SampleJoinTiming(0.0, 0.0, 0.0))
        rng = np.random.default_rng(self.seed)

        # Cooperative checkpoints between the pick/build/join stages let a
        # per-call deadline (and the fault harness) preempt the estimation.
        t0 = time.perf_counter()
        checkpoint("sampling.pick")
        idx1 = pick_sample_indices(ds1, self.fraction1, self.method, rng)
        idx2 = pick_sample_indices(ds2, self.fraction2, self.method, rng)
        sample1 = ds1.rects[idx1]
        sample2 = ds2.rects[idx2]
        t1 = time.perf_counter()
        checkpoint("sampling.build")
        predicate = self.predicate
        if predicate is not None and predicate.key != "intersects":
            # Predicate joins run sort-based or refined-tree engines with
            # no reusable tree artifact: no build stage to time.
            from ..predicates.joins import (  # sampling → predicates, lazy: no cycle
                predicate_join_count,
                supported_join_methods,
            )

            engine = (
                self.join_method
                if self.join_method in supported_join_methods(predicate)
                else "auto"
            )
            t2 = time.perf_counter()
            checkpoint("sampling.join")
            pairs = predicate_join_count(sample1, sample2, predicate, method=engine)
        elif self.join_method == "flat":
            flat1 = self._build_flat(sample1)
            flat2 = self._build_flat(sample2)
            t2 = time.perf_counter()
            checkpoint("sampling.join")
            pairs = flat_join_count(flat1, flat2)
        else:
            from ..join import plane_sweep_count

            t2 = time.perf_counter()
            checkpoint("sampling.join")
            pairs = plane_sweep_count(sample1, sample2)
        t3 = time.perf_counter()

        n1s, n2s = len(sample1), len(sample2)
        selectivity = pairs / (n1s * n2s) if n1s and n2s else 0.0
        return SamplingEstimate(
            selectivity=selectivity,
            sample_pairs=pairs,
            sample_size_1=n1s,
            sample_size_2=n2s,
            timing=SampleJoinTiming(t1 - t0, t2 - t1, t3 - t2),
        )

    def _build_flat(self, rects) -> FlatRTree:
        if self.tree_cache is not None:
            return self.tree_cache.get_or_build(
                rects, "str", max_entries=self.max_entries
            )
        return flat_load_str(rects, max_entries=self.max_entries)

    # ------------------------------------------------------------------
    def estimate_with_confidence(
        self,
        ds1: SpatialDataset,
        ds2: SpatialDataset,
        *,
        repeats: int = 10,
        z: float = 1.96,
    ) -> "ConfidenceEstimate":
        """Mean estimate with a normal-approximation confidence interval.

        The paper notes that sampling estimates are "unstable ... highly
        dataset and sample dependent"; this quantifies that instability
        by repeating the estimation with ``repeats`` independent RSWR
        draws and reporting mean ± ``z`` standard errors.  Only
        meaningful for the randomized RSWR — RS and SS are deterministic
        and are rejected (their single estimate has no sampling
        distribution to summarize).

        Replica ``run`` draws with seed ``seed + 15485863 * (run + 1)``
        (``seed=None`` counts as 0), so the interval is a pure function
        of the estimator's parameters.  Replicas share ``tree_cache``.
        """
        if self.method != "rswr":
            raise ValueError(
                "confidence intervals require the randomized 'rswr' method; "
                f"{self.method!r} is deterministic"
            )
        if repeats < 2:
            raise ValueError("repeats must be at least 2")
        base_seed = 0 if self.seed is None else self.seed
        values = np.asarray(
            [
                SamplingJoinEstimator(
                    self.method,
                    self.fraction1,
                    self.fraction2,
                    seed=base_seed + 15485863 * (run + 1),
                    max_entries=self.max_entries,
                    join_method=self.join_method,
                    tree_cache=self.tree_cache,
                    predicate=self.predicate,
                ).estimate(ds1, ds2)
                for run in range(repeats)
            ],
            dtype=np.float64,
        )
        mean = float(values.mean())
        std_error = float(values.std(ddof=1) / np.sqrt(repeats))
        return ConfidenceEstimate(
            mean=mean,
            std_error=std_error,
            lower=max(0.0, mean - z * std_error),
            upper=mean + z * std_error,
            repeats=repeats,
        )
