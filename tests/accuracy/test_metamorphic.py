"""Metamorphic accuracy tests: selectivity is a *relative* quantity, so
every estimator must be invariant under transformations that preserve
the data's geometry relative to its extent:

* **translation** of both datasets and their extents;
* **uniform scaling** about the origin (we scale by powers of two, which
  is exact in binary floating point — the grid assignment arithmetic
  ``(x*s - xmin*s) / (cw*s)`` then reproduces the untransformed
  quotients bit for bit);
* **x/y axis swap** (the gridded schemes transpose their cell arrays;
  their sums are permutation-invariant up to float summation order).

Histogram/parametric estimates are compared with tolerances matched to
the transform's exactness; the seeded sampling estimators must be
invariant *in distribution* — same seed, same sample indices, so the
estimate must survive exact transforms unchanged.
"""

import math

import pytest

from repro.core import (
    BasicGHEstimator,
    GHEstimator,
    ParametricEstimator,
    PHEstimator,
)
from repro.datasets import SpatialDataset, make_clustered, make_gaussian_clusters, make_uniform
from repro.geometry import Rect, RectArray
from repro.sampling import SamplingJoinEstimator

pytestmark = pytest.mark.accuracy


# ----------------------------------------------------------------------
# Dataset transforms (extent transformed alongside the data).
# ----------------------------------------------------------------------
def translate(ds: SpatialDataset, dx: float, dy: float) -> SpatialDataset:
    extent = Rect(
        ds.extent.xmin + dx, ds.extent.ymin + dy, ds.extent.xmax + dx, ds.extent.ymax + dy
    )
    return SpatialDataset(ds.name, ds.rects.translate(dx, dy), extent)


def scale(ds: SpatialDataset, s: float) -> SpatialDataset:
    extent = Rect(
        ds.extent.xmin * s, ds.extent.ymin * s, ds.extent.xmax * s, ds.extent.ymax * s
    )
    return SpatialDataset(ds.name, ds.rects.scale(s), extent)


def swap_axes(ds: SpatialDataset) -> SpatialDataset:
    r = ds.rects
    rects = RectArray(r.ymin, r.xmin, r.ymax, r.xmax, validate=False)
    extent = Rect(ds.extent.ymin, ds.extent.xmin, ds.extent.ymax, ds.extent.xmax)
    return SpatialDataset(ds.name, rects, extent)


#: (transform applied to both datasets, relative tolerance).  Power-of-2
#: scaling is bit-exact; translation/swap perturb float summation only.
TRANSFORMS = {
    "translate": (lambda ds: translate(ds, 0.5, -0.25), 1e-6),
    "scale_pow2": (lambda ds: scale(ds, 4.0), 1e-12),
    "swap_axes": (lambda ds: swap_axes(ds), 1e-9),
}

ESTIMATORS = {
    "parametric": ParametricEstimator(),
    "ph5": PHEstimator(level=5),
    "gh6": GHEstimator(level=6),
    "gh_basic6": BasicGHEstimator(level=6),
}


@pytest.fixture(scope="module")
def pairs():
    return {
        "uniform_x_clustered": (
            make_uniform(1500, seed=71, name="U"),
            make_clustered(1200, seed=72, name="C"),
        ),
        "zipf_x_uniform": (
            make_gaussian_clusters(1300, seed=73, n_clusters=5, name="Z"),
            make_uniform(1100, seed=74, name="U2"),
        ),
    }


@pytest.mark.parametrize("est_name", sorted(ESTIMATORS))
@pytest.mark.parametrize("transform_name", sorted(TRANSFORMS))
def test_histogram_estimators_invariant(pairs, est_name, transform_name):
    estimator = ESTIMATORS[est_name]
    transform, rel_tol = TRANSFORMS[transform_name]
    for pair_name, (ds1, ds2) in pairs.items():
        base = estimator.estimate(ds1, ds2)
        moved = estimator.estimate(transform(ds1), transform(ds2))
        assert base > 0, f"{pair_name}: degenerate baseline"
        assert math.isclose(base, moved, rel_tol=rel_tol), (
            f"{est_name} not invariant under {transform_name} on {pair_name}: "
            f"{base} vs {moved}"
        )


#: (method, transform) combinations where the sample *indices* are
#: invariant, so the estimate must be bit-identical.  SS is excluded
#: under axis swap on purpose: it samples along the Hilbert order, and
#: swapping x/y reverses the Hilbert traversal (diagonal symmetry), so
#: SS legitimately draws a different — equally valid — sample set.
_EXACT_CASES = [
    ("rs", "scale_pow2"),
    ("rs", "swap_axes"),
    ("rswr", "scale_pow2"),
    ("rswr", "swap_axes"),
    ("ss", "scale_pow2"),
]


@pytest.mark.parametrize("join_method", ["flat", "sweep"])
@pytest.mark.parametrize("method,transform_name", _EXACT_CASES)
def test_sampling_exact_transforms_bit_identical(pairs, method, transform_name, join_method):
    """Exact transforms: same seed → same sample ids → identical count.

    Run under both sample-join engines — the flat R-tree kernel must
    preserve the invariance exactly as the plane sweep does.
    """
    transform, _ = TRANSFORMS[transform_name]
    estimator = SamplingJoinEstimator(method, 0.3, 0.3, seed=17, join_method=join_method)
    for pair_name, (ds1, ds2) in pairs.items():
        base = estimator.estimate(ds1, ds2)
        moved = estimator.estimate(transform(ds1), transform(ds2))
        assert base == moved, f"{method}/{join_method} under {transform_name} on {pair_name}"


@pytest.mark.parametrize("join_method", ["flat", "sweep"])
@pytest.mark.parametrize("method", ["rs", "rswr", "ss"])
def test_sampling_translation_invariant(pairs, method, join_method):
    """Translation rounds coordinates (~1 ulp); intersection gaps in the
    generated data are ~12 orders of magnitude larger, so the sample
    join count — and hence the estimate — must not change."""
    transform, _ = TRANSFORMS["translate"]
    estimator = SamplingJoinEstimator(method, 0.3, 0.3, seed=17, join_method=join_method)
    for pair_name, (ds1, ds2) in pairs.items():
        base = estimator.estimate(ds1, ds2)
        moved = estimator.estimate(transform(ds1), transform(ds2))
        assert base == moved, f"{method}/{join_method} under translation on {pair_name}"


@pytest.mark.parametrize("method,transform_name", _EXACT_CASES)
def test_flat_and_sweep_engines_agree_under_transforms(pairs, method, transform_name):
    """The R-tree kernel and the plane sweep must agree bit-for-bit on
    transformed data too — the differential gate holds everywhere, not
    just on the raw corpus."""
    transform, _ = TRANSFORMS[transform_name]
    flat = SamplingJoinEstimator(method, 0.3, 0.3, seed=17, join_method="flat")
    ref = SamplingJoinEstimator(method, 0.3, 0.3, seed=17, join_method="sweep")
    for pair_name, (ds1, ds2) in pairs.items():
        moved1, moved2 = transform(ds1), transform(ds2)
        got = flat.estimate_detailed(moved1, moved2)
        want = ref.estimate_detailed(moved1, moved2)
        assert got.sample_pairs == want.sample_pairs, f"{method} on {pair_name}"
        assert got.selectivity == want.selectivity


def test_confidence_interval_invariant_in_distribution(pairs):
    """Fixed-seed RSWR replicas: the whole interval must survive an
    exact transform unchanged (same seeds, same draws)."""
    transform, _ = TRANSFORMS["scale_pow2"]
    ds1, ds2 = pairs["uniform_x_clustered"]
    est = SamplingJoinEstimator("rswr", 0.25, 0.25, seed=23)
    base = est.estimate_with_confidence(ds1, ds2, repeats=5)
    moved = est.estimate_with_confidence(transform(ds1), transform(ds2), repeats=5)
    assert base == moved


# ----------------------------------------------------------------------
# Predicate-aware metamorphic suite.
#
# A transform T of the *data* preserves the join only together with the
# matching transform of the *predicate* (the algebra on JoinPredicate):
# translation keeps every predicate, power-of-two scaling rescales ε
# with the data, an axis swap maps x-predicates to y-predicates.  The
# exact engines must then reproduce the count exactly; the estimators
# are held to the same tolerance tiers as the intersection ones.
# ----------------------------------------------------------------------

from repro.predicates import (  # noqa: E402  (suite-local extension)
    STANDARD_PREDICATES,
    Inequality,
    WithinDistance,
    create_predicate_estimator,
    predicate_join_count,
)

#: transform name → the matching predicate transform.
_PREDICATE_TRANSFORMS = {
    "translate": lambda p: p.translated(0.5, -0.25),
    "scale_pow2": lambda p: p.scaled(4.0),
    "swap_axes": lambda p: p.swapped_axes(),
}


@pytest.mark.parametrize("pred_name", sorted(STANDARD_PREDICATES))
@pytest.mark.parametrize("transform_name", sorted(TRANSFORMS))
def test_exact_counts_invariant_under_paired_transforms(pairs, pred_name, transform_name):
    """(T(data), T(predicate)) preserves the exact join count — for every
    standard predicate, every transform, every matrix pair."""
    transform, _ = TRANSFORMS[transform_name]
    predicate = STANDARD_PREDICATES[pred_name]
    moved_predicate = _PREDICATE_TRANSFORMS[transform_name](predicate)
    for pair_name, (ds1, ds2) in pairs.items():
        base = predicate_join_count(ds1.rects, ds2.rects, predicate)
        moved = predicate_join_count(
            transform(ds1).rects, transform(ds2).rects, moved_predicate
        )
        assert base == moved, f"{pred_name} under {transform_name} on {pair_name}"
        assert base > 0, f"{pair_name}: degenerate baseline"


@pytest.mark.parametrize(
    "pred_name", ["within_eps", "interval_x", "ineq_lt_xmin"]
)
@pytest.mark.parametrize("transform_name", sorted(TRANSFORMS))
def test_predicate_estimators_invariant(pairs, pred_name, transform_name):
    """Each predicate's estimator family (inflated GH, interval and
    endpoint histograms) is invariant under the paired transforms, at
    the transform's tolerance tier."""
    transform, rel_tol = TRANSFORMS[transform_name]
    predicate = STANDARD_PREDICATES[pred_name]
    moved_predicate = _PREDICATE_TRANSFORMS[transform_name](predicate)
    base_estimator = create_predicate_estimator("gh", predicate, level=6)
    moved_estimator = create_predicate_estimator("gh", moved_predicate, level=6)
    for pair_name, (ds1, ds2) in pairs.items():
        base = base_estimator.estimate(ds1, ds2)
        moved = moved_estimator.estimate(transform(ds1), transform(ds2))
        assert base > 0, f"{pair_name}: degenerate baseline"
        assert math.isclose(base, moved, rel_tol=rel_tol), (
            f"{pred_name} estimator not invariant under {transform_name} on "
            f"{pair_name}: {base} vs {moved}"
        )


@pytest.mark.parametrize("pred_name", sorted(STANDARD_PREDICATES))
@pytest.mark.parametrize("transform_name", ["scale_pow2", "swap_axes"])
def test_sampling_with_predicate_bit_identical_under_exact_transforms(
    pairs, pred_name, transform_name
):
    """Exact transforms with the paired predicate: same seed → same
    sample ids → the predicate-aware sample join count is bit-identical."""
    transform, _ = TRANSFORMS[transform_name]
    predicate = STANDARD_PREDICATES[pred_name]
    moved_predicate = _PREDICATE_TRANSFORMS[transform_name](predicate)
    base_est = SamplingJoinEstimator("rs", 0.3, 0.3, seed=17, predicate=predicate)
    moved_est = SamplingJoinEstimator("rs", 0.3, 0.3, seed=17, predicate=moved_predicate)
    for pair_name, (ds1, ds2) in pairs.items():
        base = base_est.estimate(ds1, ds2)
        moved = moved_est.estimate(transform(ds1), transform(ds2))
        assert base == moved, f"{pred_name} under {transform_name} on {pair_name}"


# -- documented non-invariances ----------------------------------------
# The predicate docstrings call these out; regression-test that they
# stay *non*-invariant (a future "fix" silently changing the semantics
# should trip these).


def test_unswapped_inequality_changes_under_axis_swap(pairs):
    """Keeping the same Inequality while swapping the data's axes asks a
    different question (it now compares what used to be y-endpoints);
    on asymmetric data the count must change."""
    ds1, ds2 = pairs["uniform_x_clustered"]
    predicate = Inequality("lt", "xmin")
    base = predicate_join_count(ds1.rects, ds2.rects, predicate)
    moved = predicate_join_count(
        swap_axes(ds1).rects, swap_axes(ds2).rects, predicate
    )
    # The clustered side centers at (0.4, 0.7): its xmin and ymin
    # distributions differ, so the unswapped predicate cannot agree.
    assert base != moved
    # The paired transform restores the count exactly.
    assert (
        predicate_join_count(
            swap_axes(ds1).rects, swap_axes(ds2).rects, predicate.swapped_axes()
        )
        == base
    )


def test_unscaled_epsilon_changes_under_scaling(pairs):
    """Scaling the data 4x while keeping ε fixed shrinks the join: ε is
    an absolute distance, not a relative one."""
    ds1, ds2 = pairs["uniform_x_clustered"]
    predicate = WithinDistance(0.05)
    base = predicate_join_count(ds1.rects, ds2.rects, predicate)
    scaled1, scaled2 = scale(ds1, 4.0), scale(ds2, 4.0)
    moved = predicate_join_count(scaled1.rects, scaled2.rects, predicate)
    assert moved < base
    # The paired transform (ε -> 4ε) restores the count exactly.
    assert (
        predicate_join_count(scaled1.rects, scaled2.rects, predicate.scaled(4.0))
        == base
    )
