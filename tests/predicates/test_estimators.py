"""Predicate-aware estimator rungs: exactness anchors, accuracy sanity,
fallback-ladder shapes, and the resilient-service integration.

The load-bearing exact checks: ``InflatedEstimator`` at ε = 0 is
bit-identical to its wrapped estimator, the endpoint inequality
estimates obey the complement identity bit-exactly, and the resilient
service answers a healthy predicate primary with the primary's own
number.  The accuracy checks are loose sanity bands — the tight
per-pair ceilings live in the golden corpus.
"""

import pytest

from repro.core.estimator import (
    GHEstimator,
    ParametricEstimator,
    PHEstimator,
    SamplingEstimatorAdapter,
)
from repro.datasets import make_clustered, make_uniform
from repro.predicates import (
    EndpointInequalityEstimator,
    Inequality,
    Intersects,
    IntervalOverlap,
    IntervalOverlapEstimator,
    InflatedEstimator,
    ParametricIntervalEstimator,
    WithinDistance,
    create_predicate_estimator,
    predicate_of,
    predicate_selectivity,
)
from repro.service import ResilientEstimator, default_fallback_chain

pytestmark = pytest.mark.accuracy

_EPS = 0.05


@pytest.fixture(scope="module")
def datasets():
    return (
        make_uniform(2000, seed=31, name="u"),
        make_clustered(1500, seed=32, name="c"),
    )


# -- InflatedEstimator --------------------------------------------------


@pytest.mark.parametrize(
    "inner_factory",
    [lambda: GHEstimator(level=6), lambda: PHEstimator(level=5), ParametricEstimator],
    ids=["gh6", "ph5", "parametric"],
)
def test_eps_zero_bit_identical_to_inner(datasets, inner_factory):
    ds1, ds2 = datasets
    inner = inner_factory()
    wrapped = InflatedEstimator(inner_factory(), 0.0)
    assert wrapped.estimate(ds1, ds2) == inner.estimate(ds1, ds2)


def test_inflated_estimator_tracks_epsilon_growth(datasets):
    """More ε → more buffered overlap → monotonically larger estimates,
    and each estimate lands within a loose band of the exact answer."""
    ds1, ds2 = datasets
    estimates = []
    for eps in (0.0, 0.02, _EPS):
        estimator = InflatedEstimator(GHEstimator(level=6), eps)
        est = estimator.estimate(ds1, ds2)
        exact = predicate_selectivity(ds1.rects, ds2.rects, WithinDistance(eps))
        assert 0.0 <= est <= 1.0
        # Two-sided ε/2 buffering over-counts L2 corners by design;
        # 2x is far outside any plausible regression band.
        assert est == pytest.approx(exact, rel=1.0)
        estimates.append(est)
    assert estimates == sorted(estimates)


def test_inflated_estimator_validation():
    with pytest.raises(TypeError, match="PreparedEstimator"):
        InflatedEstimator(SamplingEstimatorAdapter(), 0.1)
    with pytest.raises(ValueError, match="eps"):
        InflatedEstimator(GHEstimator(level=5), -1.0)
    estimator = InflatedEstimator(GHEstimator(level=5), 0.25)
    assert estimator.name == "inflated_gh"
    assert estimator.level == 5
    assert estimator.predicate == WithinDistance(0.25)


# -- 1-D histogram estimators ------------------------------------------


@pytest.mark.parametrize("endpoint", ["xmin", "ymax"])
def test_endpoint_estimator_complement_is_bit_exact(datasets, endpoint):
    ds1, ds2 = datasets
    lt = EndpointInequalityEstimator(Inequality("lt", endpoint), level=6)
    ge = EndpointInequalityEstimator(Inequality("ge", endpoint), level=6)
    assert lt.estimate(ds1, ds2) + ge.estimate(ds1, ds2) == 1.0


def test_endpoint_estimator_accuracy(datasets):
    ds1, ds2 = datasets
    predicate = Inequality("lt", "xmin")
    exact = predicate_selectivity(ds1.rects, ds2.rects, predicate)
    est = EndpointInequalityEstimator(predicate, level=6).estimate(ds1, ds2)
    assert est == pytest.approx(exact, rel=0.05)
    # Level 0 is the single-bucket closed form: everything in one bucket
    # estimates P(lt) = 1/2.
    assert EndpointInequalityEstimator(predicate, level=0).estimate(ds1, ds2) == 0.5


def test_interval_estimator_accuracy(datasets):
    ds1, ds2 = datasets
    predicate = IntervalOverlap("x")
    exact = predicate_selectivity(ds1.rects, ds2.rects, predicate)
    est = IntervalOverlapEstimator(predicate, level=6).estimate(ds1, ds2)
    assert 0.0 <= est <= 1.0
    assert est == pytest.approx(exact, rel=0.5)


def test_parametric_interval_estimator(datasets):
    ds1, ds2 = datasets
    est = ParametricIntervalEstimator(IntervalOverlap("x")).estimate(ds1, ds2)
    spans1 = ds1.rects.widths().mean()
    spans2 = ds2.rects.widths().mean()
    assert est == pytest.approx((spans1 + spans2) / ds1.extent.width)


def test_one_d_estimator_validation():
    with pytest.raises(TypeError, match="Inequality"):
        EndpointInequalityEstimator(Intersects())
    with pytest.raises(TypeError, match="IntervalOverlap"):
        IntervalOverlapEstimator(Inequality())
    with pytest.raises(TypeError, match="IntervalOverlap"):
        ParametricIntervalEstimator(Intersects())
    with pytest.raises(ValueError, match="level"):
        EndpointInequalityEstimator(Inequality(), level=-1)
    with pytest.raises(ValueError, match="level"):
        IntervalOverlapEstimator(IntervalOverlap(), level=-2)


# -- predicate_of -------------------------------------------------------


def test_predicate_of():
    assert predicate_of(GHEstimator(level=5)) is None
    assert predicate_of(InflatedEstimator(GHEstimator(level=5), 0.1)) == WithinDistance(0.1)
    assert predicate_of(EndpointInequalityEstimator(Inequality("le", "ymin"))) == Inequality("le", "ymin")
    assert predicate_of(SamplingEstimatorAdapter(predicate=IntervalOverlap("y"))) == IntervalOverlap("y")
    # An explicit Intersects predicate is "no predicate" for chains.
    assert predicate_of(SamplingEstimatorAdapter(predicate=Intersects())) is None
    assert predicate_of(SamplingEstimatorAdapter()) is None


# -- fallback chains ----------------------------------------------------


def test_inflated_chain_rewraps_every_rung():
    primary = InflatedEstimator(GHEstimator(level=6), 0.25)
    chain = default_fallback_chain(primary)
    assert chain[0] is primary
    assert len(chain) >= 3
    for rung in chain:
        assert isinstance(rung, InflatedEstimator)
        assert rung.eps == 0.25
    # The floor is statistics-only: the inflated parametric closed form.
    assert isinstance(chain[-1].inner, ParametricEstimator)


def test_endpoint_chain_coarsens_to_level_zero():
    chain = default_fallback_chain(EndpointInequalityEstimator(Inequality(), level=6))
    assert [r.level for r in chain] == [6, 3, 0]
    assert all(isinstance(r, EndpointInequalityEstimator) for r in chain)
    # Already at the floor: a level-0 primary gets no rungs below it.
    floor = EndpointInequalityEstimator(Inequality(), level=0)
    assert [r.level for r in default_fallback_chain(floor)] == [0]


def test_interval_chain_floors_at_parametric():
    chain = default_fallback_chain(IntervalOverlapEstimator(IntervalOverlap(), level=6))
    assert isinstance(chain[0], IntervalOverlapEstimator)
    assert isinstance(chain[-1], ParametricIntervalEstimator)
    assert len(chain) == 3
    # Already at the floor: the closed form gets no rungs below it.
    floor = ParametricIntervalEstimator(IntervalOverlap())
    assert default_fallback_chain(floor) == (floor,)


@pytest.mark.parametrize(
    "predicate",
    [WithinDistance(0.1), Inequality("gt", "xmax"), IntervalOverlap("y")],
    ids=lambda p: p.key,
)
def test_sampling_primary_gets_matching_histogram_ladder(predicate):
    primary = SamplingEstimatorAdapter(predicate=predicate)
    chain = default_fallback_chain(primary)
    assert chain[0] is primary
    assert len(chain) == 3
    for rung in chain[1:]:
        assert predicate_of(rung) == predicate


@pytest.mark.parametrize(
    "factory",
    [
        lambda: InflatedEstimator(GHEstimator(level=6), _EPS),
        lambda: EndpointInequalityEstimator(Inequality("lt", "xmin"), level=6),
        lambda: IntervalOverlapEstimator(IntervalOverlap("x"), level=6),
    ],
    ids=["inflated", "endpoint", "interval"],
)
def test_resilient_service_answers_with_the_primary(datasets, factory):
    """ResilientEstimator builds a predicate-aware ladder automatically
    and, on healthy inputs, answers with the primary's own estimate."""
    ds1, ds2 = datasets
    primary = factory()
    resilient = ResilientEstimator(primary)
    assert resilient.estimate(ds1, ds2) == factory().estimate(ds1, ds2)


# -- create_predicate_estimator ----------------------------------------


def test_create_dispatch():
    assert isinstance(create_predicate_estimator("gh", Intersects(), level=6), GHEstimator)
    wrapped = create_predicate_estimator("gh", WithinDistance(0.1), level=6)
    assert isinstance(wrapped, InflatedEstimator)
    assert wrapped.eps == 0.1
    assert isinstance(wrapped.inner, GHEstimator)
    sampler = create_predicate_estimator("sampling", Inequality("lt", "xmin"))
    assert isinstance(sampler, SamplingEstimatorAdapter)
    endpoint = create_predicate_estimator("gh", Inequality("lt", "xmin"), level=4)
    assert isinstance(endpoint, EndpointInequalityEstimator)
    assert endpoint.level == 4
    assert isinstance(
        create_predicate_estimator("parametric", Inequality("lt", "xmin")),
        EndpointInequalityEstimator,
    )
    assert create_predicate_estimator("parametric", Inequality("lt", "xmin")).level == 0
    assert isinstance(
        create_predicate_estimator("gh", IntervalOverlap("x")), IntervalOverlapEstimator
    )
    assert isinstance(
        create_predicate_estimator("parametric", IntervalOverlap("x")),
        ParametricIntervalEstimator,
    )


def test_create_dispatch_errors():
    with pytest.raises(ValueError, match="unknown estimator kind"):
        create_predicate_estimator("bogus", WithinDistance(0.1))
    with pytest.raises(ValueError, match="unsupported kwargs"):
        create_predicate_estimator("gh", Inequality(), bogus=1)


def test_sampling_adapter_matches_direct_predicate_join(datasets):
    """The sampling adapter with a predicate estimates the predicate's
    selectivity, not the intersection's — anchor on a 100% 'sample'."""
    ds1, ds2 = datasets
    predicate = Inequality("lt", "xmin")
    adapter = SamplingEstimatorAdapter(
        method="rs", fraction1=1.0, fraction2=1.0, seed=5, predicate=predicate
    )
    exact = predicate_selectivity(ds1.rects, ds2.rects, predicate)
    assert adapter.estimate(ds1, ds2) == pytest.approx(exact)
