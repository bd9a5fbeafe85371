"""Golden accuracy gate: the committed corpus must replay exactly.

``golden_corpus.json`` freezes, for four seeded synthetic join pairs:
the exact intersecting-pair count (re-verified here through
``join_count``, the R-tree join at these sizes), a per-estimator
relative-error ceiling (measured error x1.5 + 1pp at freeze time), and
— since corpus version 2 — a per-predicate section per pair: the exact
count under every standard predicate plus the error ceilings of that
predicate's estimator family.  A failure means an estimator or a generator changed
behavior; regenerate deliberately with
``python benchmarks/make_golden_corpus.py`` and justify the diff.
``test_corpus_regenerates_exactly`` keeps that script honest: the
committed file is exactly what a fresh :func:`build_corpus` produces.
"""

import json
from pathlib import Path

import pytest

from repro.eval.golden import (
    CORPUS_VERSION,
    GOLDEN_ESTIMATORS,
    GOLDEN_PAIRS,
    GOLDEN_PREDICATE_ESTIMATORS,
    build_corpus,
    build_pair,
    check_corpus,
)
from repro.join import join_count
from repro.predicates import STANDARD_PREDICATES, naive_predicate_count, predicate_from_key

pytestmark = pytest.mark.accuracy

CORPUS_PATH = Path(__file__).parent / "golden_corpus.json"


@pytest.fixture(scope="module")
def corpus():
    return json.loads(CORPUS_PATH.read_text())


def test_corpus_file_shape(corpus):
    assert corpus["version"] == CORPUS_VERSION
    assert set(corpus["pairs"]) == set(GOLDEN_PAIRS)
    for entry in corpus["pairs"].values():
        assert set(entry["estimators"]) == set(GOLDEN_ESTIMATORS)
        for grades in entry["estimators"].values():
            assert grades["max_error_pct"] >= grades["error_pct"]
        assert set(entry["predicates"]) == set(STANDARD_PREDICATES)
        for pred_name, section in entry["predicates"].items():
            assert predicate_from_key(section["predicate_key"]) == STANDARD_PREDICATES[pred_name]
            assert set(section["estimators"]) == set(GOLDEN_PREDICATE_ESTIMATORS[pred_name])
            for grades in section["estimators"].values():
                assert grades["max_error_pct"] >= grades["error_pct"]


def test_intersects_sections_cross_gate_the_oracle(corpus):
    """The committed intersects-predicate count must equal the pair's
    top-level ``join_count`` — the predicate engines and the oracle are
    tied together inside the committed file itself."""
    for name, entry in corpus["pairs"].items():
        assert entry["predicates"]["intersects"]["exact_count"] == entry["exact_count"], name


def test_corpus_replays_clean(corpus):
    """The one gate: exact counts + every error ceiling."""
    mismatches = check_corpus(corpus)
    assert not mismatches, "\n".join(str(m) for m in mismatches)


def test_corpus_regenerates_exactly(corpus):
    """Regenerating from scratch reproduces the committed file value for
    value — counts, selectivities and every grade — so
    ``make_golden_corpus.py`` cannot drift from the replay gate."""
    assert build_corpus() == corpus


@pytest.mark.parametrize("name", sorted(GOLDEN_PAIRS))
def test_exact_counts_match_serial_engine(corpus, name):
    """``join_count`` must reproduce each pair's frozen count (one test
    per pair, so a drift names its pair)."""
    ds1, ds2 = build_pair(name)
    assert join_count(ds1.rects, ds2.rects) == corpus["pairs"][name]["exact_count"]


@pytest.mark.parametrize("pred_name", sorted(STANDARD_PREDICATES))
def test_predicate_counts_match_naive_oracle(corpus, pred_name):
    """The committed per-predicate counts were frozen through the
    specialized engines; the blocked naive oracle must agree on the
    smallest pair (differential cross-check of the corpus itself)."""
    name = "clusters_x_diagonal"
    ds1, ds2 = build_pair(name)
    expected = corpus["pairs"][name]["predicates"][pred_name]["exact_count"]
    assert naive_predicate_count(ds1.rects, ds2.rects, STANDARD_PREDICATES[pred_name]) == expected


def test_corpus_rejects_stale_version(corpus):
    stale = dict(corpus, version=CORPUS_VERSION - 1)
    with pytest.raises(ValueError, match="regenerate"):
        check_corpus(stale)


def test_mismatch_reported_not_raised(corpus):
    """check_corpus returns structured mismatches for tooling — a
    corrupted count must surface as a GoldenMismatch, not an exception."""
    name = sorted(GOLDEN_PAIRS)[0]
    broken = json.loads(CORPUS_PATH.read_text())
    broken["pairs"][name]["exact_count"] += 1
    mismatches = check_corpus(broken)
    assert any(m.pair == name and m.field == "count" for m in mismatches)


def test_predicate_mismatch_reported_not_raised(corpus):
    """A corrupted per-predicate count must surface as a structured
    mismatch naming the predicate section."""
    name = sorted(GOLDEN_PAIRS)[0]
    broken = json.loads(CORPUS_PATH.read_text())
    broken["pairs"][name]["predicates"]["within_eps"]["exact_count"] += 1
    mismatches = check_corpus(broken)
    assert any(m.pair == name and m.field == "within_eps.count" for m in mismatches)
