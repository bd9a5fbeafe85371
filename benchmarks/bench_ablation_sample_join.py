"""Ablation: how to join the samples inside the sampling estimator.

DESIGN.md §6.3: the paper asserts (Section 2) that building R-trees on
the samples and R-tree-joining them beats running a plane sweep
directly, "since even a small percentage of the datasets can result in a
large number of data items".  This bench puts a number on that choice.
Both variants produce identical estimates (same samples, exact joins).
"""

from __future__ import annotations

import pytest

from repro.sampling import SamplingJoinEstimator

FRACTIONS = (0.1, 0.3)


@pytest.mark.parametrize("fraction", FRACTIONS)
@pytest.mark.parametrize("join_method", ["flat", "sweep"])
def test_sample_join_substrate(benchmark, pair_context, join_method, fraction):
    ctx = pair_context
    benchmark.group = f"ablation-samplejoin-{ctx.name}-f{fraction}"
    estimator = SamplingJoinEstimator(
        "rs", fraction, fraction, join_method=join_method
    )
    selectivity = benchmark(lambda: estimator.estimate(ctx.ds1, ctx.ds2))
    benchmark.extra_info["selectivity"] = selectivity


@pytest.mark.parametrize("fraction", FRACTIONS)
def test_substrates_agree_exactly(pair_context, fraction):
    """Same deterministic samples, both engines exact: identical output."""
    ctx = pair_context
    flat = SamplingJoinEstimator("rs", fraction, fraction, join_method="flat")
    sweep = SamplingJoinEstimator("rs", fraction, fraction, join_method="sweep")
    assert flat.estimate(ctx.ds1, ctx.ds2) == sweep.estimate(ctx.ds1, ctx.ds2)
