"""Golden accuracy corpus: frozen datasets, exact counts, error floors.

The corpus is a small set of *seeded* synthetic join pairs for which we
commit (a) the exact intersecting-pair count — verified at test time
through :func:`~repro.join.join_count`, the R-tree join at these sizes
— and (b) per-estimator relative-error
baselines with a regression margin.  The committed file
``tests/accuracy/golden_corpus.json`` is the contract; the ``pytest -m
accuracy`` CI job replays it through :func:`check_corpus`.

Since version 2 every pair also carries a ``predicates`` section: for
each entry of :data:`repro.predicates.STANDARD_PREDICATES`, the exact
pair count under that predicate (recomputed at check time through the
predicate engines) and the error ceilings of that predicate's estimator
family.  The ``intersects`` predicate entry doubles as a cross-gate —
its count must equal the pair's top-level ``exact_count``, tying the
predicate engines to the ``join_count`` oracle inside the committed file
itself.

The estimators are fully deterministic given the spec (histograms and
the parametric model are data-functions; the sampling entries carry a
fixed seed), so any drift in a committed ``error_pct`` means an
algorithmic change, not noise.  Regenerate deliberately with
``python benchmarks/make_golden_corpus.py`` after such a change, and
justify the new numbers in the PR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

from ..core import BasicGHEstimator, GHEstimator, ParametricEstimator, PHEstimator
from ..core.metrics import relative_error_pct
from ..datasets import (
    SpatialDataset,
    make_clustered,
    make_diagonal,
    make_gaussian_clusters,
    make_grid_aligned,
    make_uniform,
)
from ..join import join_count
from ..predicates import (
    STANDARD_PREDICATES,
    EndpointInequalityEstimator,
    Inequality,
    InflatedEstimator,
    IntervalOverlap,
    IntervalOverlapEstimator,
    ParametricIntervalEstimator,
    predicate_join_count,
)
from ..sampling import SamplingJoinEstimator

__all__ = [
    "GOLDEN_PAIRS",
    "GOLDEN_ESTIMATORS",
    "GOLDEN_PREDICATE_ESTIMATORS",
    "GoldenMismatch",
    "build_pair",
    "build_corpus",
    "check_corpus",
]

#: Corpus version — bump when specs/estimators change shape, so a stale
#: committed file fails loudly instead of comparing the wrong things.
#: Version 2 added the per-predicate sections.
CORPUS_VERSION = 2

#: Margin applied to measured errors when freezing baselines: a corpus
#: entry allows ``error_pct <= measured * MARGIN_FACTOR + MARGIN_FLOOR``.
#: Wide enough to absorb float-summation jitter across platforms, tight
#: enough that an estimator regression (wrong cell weights, broken
#: normalization) trips the gate.
MARGIN_FACTOR = 1.5
MARGIN_FLOOR = 1.0  # percentage points


@dataclass(frozen=True)
class GoldenMismatch:
    """One violated expectation from :func:`check_corpus`."""

    pair: str
    field: str  # "count" or the estimator key
    expected: float
    observed: float

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return f"{self.pair}.{self.field}: expected {self.expected}, got {self.observed}"


#: name -> zero-argument builder returning (ds1, ds2).  Seeds are part of
#: the contract: the committed counts are only meaningful for these
#: exact datasets.
GOLDEN_PAIRS: Mapping[str, Callable[[], tuple[SpatialDataset, SpatialDataset]]] = {
    "uniform_x_uniform": lambda: (
        make_uniform(2000, seed=101, name="A"),
        make_uniform(1800, seed=102, name="B"),
    ),
    "uniform_x_clustered": lambda: (
        make_uniform(1600, seed=103, name="A"),
        make_clustered(1500, seed=104, name="B"),
    ),
    "clusters_x_diagonal": lambda: (
        make_gaussian_clusters(1700, seed=105, n_clusters=6, name="A"),
        make_diagonal(1400, seed=106, name="B"),
    ),
    "grid_x_clustered": lambda: (
        make_grid_aligned(1500, seed=107, name="A"),
        make_clustered(1600, seed=108, name="B"),
    ),
}

#: key -> estimator factory.  Factories (not instances) so check runs
#: never share mutable state with build runs.
GOLDEN_ESTIMATORS: Mapping[str, Callable[[], object]] = {
    "parametric": ParametricEstimator,
    "ph5": lambda: PHEstimator(level=5),
    "gh6": lambda: GHEstimator(level=6),
    "gh_basic6": lambda: BasicGHEstimator(level=6),
    "rs_10": lambda: SamplingJoinEstimator("rs", 0.1, 0.1, seed=41),
    "rswr_10": lambda: SamplingJoinEstimator("rswr", 0.1, 0.1, seed=41),
    "ss_10": lambda: SamplingJoinEstimator("ss", 0.1, 0.1, seed=41),
}


#: The ε of the standard ``within_eps`` predicate (kept in lock-step
#: with :data:`repro.predicates.STANDARD_PREDICATES` by the test suite).
_GOLDEN_EPS = 0.05

#: Predicate registry key -> estimator factories graded for it.  The
#: ``intersects`` entry is empty on purpose: its section exists only for
#: the count cross-gate (the intersection estimators are already graded
#: at the top level).  ε and endpoint levels mirror the standard
#: predicates; sampling entries reuse the seeded ``rs`` configuration.
GOLDEN_PREDICATE_ESTIMATORS: Mapping[str, Mapping[str, Callable[[], object]]] = {
    "intersects": {},
    "within_eps": {
        "inflated_gh6": lambda: InflatedEstimator(GHEstimator(level=6), _GOLDEN_EPS),
        "inflated_ph5": lambda: InflatedEstimator(PHEstimator(level=5), _GOLDEN_EPS),
        "inflated_parametric": lambda: InflatedEstimator(
            ParametricEstimator(), _GOLDEN_EPS
        ),
        "rs_10": lambda: SamplingJoinEstimator(
            "rs", 0.1, 0.1, seed=41, predicate=STANDARD_PREDICATES["within_eps"]
        ),
    },
    "interval_x": {
        "interval6": lambda: IntervalOverlapEstimator(IntervalOverlap("x"), level=6),
        "interval3": lambda: IntervalOverlapEstimator(IntervalOverlap("x"), level=3),
        "interval_parametric": lambda: ParametricIntervalEstimator(IntervalOverlap("x")),
        "rs_10": lambda: SamplingJoinEstimator(
            "rs", 0.1, 0.1, seed=41, predicate=IntervalOverlap("x")
        ),
    },
    "ineq_lt_xmin": {
        "endpoint6": lambda: EndpointInequalityEstimator(
            Inequality("lt", "xmin"), level=6
        ),
        "endpoint3": lambda: EndpointInequalityEstimator(
            Inequality("lt", "xmin"), level=3
        ),
        "rs_10": lambda: SamplingJoinEstimator(
            "rs", 0.1, 0.1, seed=41, predicate=Inequality("lt", "xmin")
        ),
    },
}


def build_pair(name: str) -> tuple[SpatialDataset, SpatialDataset]:
    """Materialize one corpus pair by name."""
    return GOLDEN_PAIRS[name]()


def _grade_estimators(
    factories: Mapping[str, Callable[[], object]],
    ds1: SpatialDataset,
    ds2: SpatialDataset,
    actual: float,
) -> dict:
    """Measured ``error_pct`` / margin-applied ``max_error_pct`` per key."""
    estimators = {}
    for key, factory in factories.items():
        estimator = factory()
        error = relative_error_pct(estimator.estimate(ds1, ds2), actual)  # type: ignore[attr-defined]
        estimators[key] = {
            "error_pct": round(error, 4),
            "max_error_pct": round(error * MARGIN_FACTOR + MARGIN_FLOOR, 4),
        }
    return estimators


def _predicate_sections(ds1: SpatialDataset, ds2: SpatialDataset) -> dict:
    """Per-predicate exact counts + estimator grades for one pair."""
    n1, n2 = len(ds1), len(ds2)
    sections = {}
    for pred_name, predicate in STANDARD_PREDICATES.items():
        count = predicate_join_count(ds1.rects, ds2.rects, predicate)
        actual = count / (n1 * n2)
        sections[pred_name] = {
            "predicate_key": predicate.key,
            "exact_count": count,
            "selectivity": actual,
            "estimators": _grade_estimators(
                GOLDEN_PREDICATE_ESTIMATORS.get(pred_name, {}), ds1, ds2, actual
            ),
        }
    return sections


def build_corpus() -> dict:
    """Measure the corpus from scratch (what the regeneration script runs).

    Returns the JSON-ready document: exact counts plus per-estimator
    ``error_pct`` (measured) and ``max_error_pct`` (measured with the
    regression margin applied), and the per-predicate sections.
    """
    pairs = {}
    for name in GOLDEN_PAIRS:
        ds1, ds2 = build_pair(name)
        n1, n2 = len(ds1), len(ds2)
        count = join_count(ds1.rects, ds2.rects)
        actual = count / (n1 * n2)
        pairs[name] = {
            "n1": n1,
            "n2": n2,
            "exact_count": count,
            "selectivity": actual,
            "estimators": _grade_estimators(GOLDEN_ESTIMATORS, ds1, ds2, actual),
            "predicates": _predicate_sections(ds1, ds2),
        }
    return {"version": CORPUS_VERSION, "pairs": pairs}


def _check_estimators(
    name: str,
    entry: dict,
    factories: Mapping[str, Callable[[], object]],
    ds1: SpatialDataset,
    ds2: SpatialDataset,
    actual: float,
    mismatches: list[GoldenMismatch],
    *,
    prefix: str = "",
) -> None:
    """Re-grade one estimator table against its committed ceilings."""
    for key, expected in entry["estimators"].items():
        factory = factories.get(key)
        if factory is None:
            mismatches.append(
                GoldenMismatch(name, prefix + key, expected["max_error_pct"], float("nan"))
            )
            continue
        estimator = factory()
        error = relative_error_pct(estimator.estimate(ds1, ds2), actual)  # type: ignore[attr-defined]
        if error > expected["max_error_pct"]:
            mismatches.append(
                GoldenMismatch(
                    name, prefix + key, expected["max_error_pct"], round(error, 4)
                )
            )


def _check_predicates(
    name: str,
    entry: dict,
    ds1: SpatialDataset,
    ds2: SpatialDataset,
    mismatches: list[GoldenMismatch],
) -> None:
    """Replay one pair's per-predicate sections.

    Counts are recomputed through the predicate engines; the
    ``intersects`` section additionally cross-gates against the pair's
    top-level ``join_count``.
    """
    n1, n2 = len(ds1), len(ds2)
    for pred_name, section in entry.get("predicates", {}).items():
        predicate = STANDARD_PREDICATES.get(pred_name)
        if predicate is None or predicate.key != section.get("predicate_key"):
            mismatches.append(
                GoldenMismatch(name, f"{pred_name}.key", section["exact_count"], float("nan"))
            )
            continue
        count = predicate_join_count(ds1.rects, ds2.rects, predicate)
        if count != section["exact_count"]:
            mismatches.append(
                GoldenMismatch(name, f"{pred_name}.count", section["exact_count"], count)
            )
            continue  # grades below would be vs a wrong ground truth
        if pred_name == "intersects" and count != entry["exact_count"]:
            mismatches.append(
                GoldenMismatch(name, "intersects.cross", entry["exact_count"], count)
            )
            continue
        _check_estimators(
            name,
            section,
            GOLDEN_PREDICATE_ESTIMATORS.get(pred_name, {}),
            ds1,
            ds2,
            count / (n1 * n2),
            mismatches,
            prefix=f"{pred_name}.",
        )


def check_corpus(corpus: dict) -> list[GoldenMismatch]:
    """Replay a committed corpus; return every violated expectation.

    Checks, per pair: dataset sizes, the exact count (recomputed through
    ``join_count``), that each estimator's current relative
    error stays within its committed ``max_error_pct``, and every
    per-predicate section (counts via the predicate engines, grades via
    the predicate estimators, the intersects count cross-gate).
    """
    if corpus.get("version") != CORPUS_VERSION:
        raise ValueError(
            f"corpus version {corpus.get('version')!r} != {CORPUS_VERSION}; regenerate"
        )
    mismatches: list[GoldenMismatch] = []
    for name, entry in corpus["pairs"].items():
        ds1, ds2 = build_pair(name)
        if len(ds1) != entry["n1"] or len(ds2) != entry["n2"]:
            mismatches.append(
                GoldenMismatch(name, "size", entry["n1"], float(len(ds1)))
            )
            continue
        count = join_count(ds1.rects, ds2.rects)
        if count != entry["exact_count"]:
            mismatches.append(
                GoldenMismatch(name, "count", entry["exact_count"], count)
            )
            continue  # errors below would be vs a wrong ground truth
        actual = count / (entry["n1"] * entry["n2"])
        _check_estimators(name, entry, GOLDEN_ESTIMATORS, ds1, ds2, actual, mismatches)
        _check_predicates(name, entry, ds1, ds2, mismatches)
    return mismatches
