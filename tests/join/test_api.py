"""Unit tests for the unified join API."""

import numpy as np
import pytest

import repro.join.api as api
from repro.geometry import Rect, RectArray
from repro.join import actual_selectivity, join_count, join_pairs, nested_loop_count
from tests.conftest import random_rects


class TestJoinCount:
    @pytest.mark.parametrize("method", ["auto", "nested", "sweep", "rtree"])
    def test_all_methods_agree(self, two_rect_sets, method):
        a, b = two_rect_sets
        assert join_count(a, b, method=method) == nested_loop_count(a, b)

    def test_unknown_method(self, two_rect_sets):
        a, b = two_rect_sets
        with pytest.raises(ValueError):
            join_count(a, b, method="quantum")  # type: ignore[arg-type]

    def test_partition_method_is_gone(self, two_rect_sets):
        a, b = two_rect_sets
        with pytest.raises(ValueError, match="'auto', 'nested', 'sweep', 'rtree'"):
            join_count(a, b, method="partition")  # type: ignore[arg-type]

    def test_auto_small_input(self):
        a = RectArray.from_rects([Rect(0, 0, 1, 1)])
        assert join_count(a, a) == 1

    def test_auto_runs_the_rtree_join_above_the_small_input_cut(self, rng, monkeypatch):
        calls = []
        original = api.flat_join_count

        def counting(tree_a, tree_b):
            calls.append((len(tree_a), len(tree_b), tree_a.max_entries, tree_b.max_entries))
            return original(tree_a, tree_b)

        monkeypatch.setattr(api, "flat_join_count", counting)
        small_a, small_b = random_rects(rng, 200), random_rects(rng, 200)
        assert join_count(small_a, small_b) == nested_loop_count(small_a, small_b)
        assert calls == []
        a, b = random_rects(rng, api._SMALL_INPUT), random_rects(rng, 1)
        assert join_count(a, b) == nested_loop_count(a, b)
        fanout = api._EXACT_FANOUT
        assert calls == [(api._SMALL_INPUT, 1, fanout, fanout)]


class TestJoinPairs:
    @pytest.mark.parametrize("method", ["nested", "sweep", "rtree"])
    def test_pairs_sorted_and_equal(self, two_rect_sets, method):
        a, b = two_rect_sets
        pairs = join_pairs(a, b, method=method)
        reference = join_pairs(a, b, method="nested")
        assert np.array_equal(pairs, reference)
        # Lexicographic sorting.
        keys = pairs[:, 0] * (len(b) + 1) + pairs[:, 1]
        assert np.all(np.diff(keys) > 0)

    def test_partition_method_is_gone(self, two_rect_sets):
        a, b = two_rect_sets
        with pytest.raises(ValueError, match="'auto', 'nested', 'sweep', 'rtree'"):
            join_pairs(a, b, method="partition")  # type: ignore[arg-type]


class TestActualSelectivity:
    def test_definition(self, two_rect_sets):
        a, b = two_rect_sets
        sel = actual_selectivity(a, b)
        assert sel == nested_loop_count(a, b) / (len(a) * len(b))

    def test_empty_inputs_zero(self):
        assert actual_selectivity(RectArray.empty(), RectArray.empty()) == 0.0

    def test_bounds(self, rng):
        a = random_rects(rng, 100)
        sel = actual_selectivity(a, a)
        assert 0.0 <= sel <= 1.0

    def test_full_overlap_is_one(self):
        a = RectArray.from_rects([Rect(0, 0, 1, 1)] * 5)
        assert actual_selectivity(a, a) == 1.0
