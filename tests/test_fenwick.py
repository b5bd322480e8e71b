"""Unit tests for the Fenwick tree behind the stack-distance oracle."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles.reuse import FenwickTree


class TestBasics:
    def test_empty_tree_total(self):
        tree = FenwickTree(0)
        assert tree.total() == 0

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            FenwickTree(-1)

    def test_single_element(self):
        tree = FenwickTree(1)
        tree.add(0, 5)
        assert tree.prefix_sum(0) == 5
        assert tree.total() == 5

    def test_point_updates_accumulate(self):
        tree = FenwickTree(4)
        tree.add(2, 3)
        tree.add(2, 4)
        assert tree.range_sum(2, 2) == 7

    def test_out_of_range_add(self):
        tree = FenwickTree(4)
        with pytest.raises(IndexError):
            tree.add(4, 1)
        with pytest.raises(IndexError):
            tree.add(-1, 1)

    def test_out_of_range_query(self):
        tree = FenwickTree(4)
        with pytest.raises(IndexError):
            tree.prefix_sum(4)

    def test_range_sum_empty_range(self):
        tree = FenwickTree(4)
        tree.add(1, 1)
        assert tree.range_sum(3, 2) == 0

    def test_size_property(self):
        assert FenwickTree(7).size == 7


class TestAgainstReference:
    @given(
        st.lists(
            st.tuples(st.integers(0, 63), st.integers(-5, 5)),
            min_size=0,
            max_size=200,
        )
    )
    def test_matches_numpy_prefix_sums(self, updates):
        tree = FenwickTree(64)
        ref = np.zeros(64, dtype=np.int64)
        for idx, delta in updates:
            tree.add(idx, delta)
            ref[idx] += delta
        for q in (0, 1, 31, 62, 63):
            assert tree.prefix_sum(q) == ref[: q + 1].sum()

    @given(st.lists(st.integers(0, 31), min_size=1, max_size=100))
    def test_range_sums(self, indices):
        tree = FenwickTree(32)
        ref = np.zeros(32, dtype=np.int64)
        for idx in indices:
            tree.add(idx, 1)
            ref[idx] += 1
        for lo, hi in [(0, 31), (5, 10), (10, 10), (0, 0)]:
            assert tree.range_sum(lo, hi) == ref[lo : hi + 1].sum()
