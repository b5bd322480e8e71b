"""Unit tests for capacity partitioning and partitioned miss curves."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curves import (
    MissCurve,
    combine_miss_curves,
    partition_capacity,
    partitioned_miss_curve,
)
from repro.curves.partition import partition_cost_curves


def curve(values, chunk=1024, instr=1000.0):
    values = np.asarray(values, dtype=float)
    return MissCurve(
        misses=values, chunk_bytes=chunk, accesses=float(values[0]), instructions=instr
    )


class TestPartitionCostCurves:
    def test_single_consumer_gets_everything_useful(self):
        sizes, cost = partition_cost_curves([np.array([10.0, 5, 2, 2, 2])], 10)
        assert sizes == [2]  # beyond 2 chunks there is no gain
        assert cost == 2.0

    def test_greedy_is_optimal_on_convex_curves(self):
        c1 = np.array([100.0, 60, 30, 15, 10, 8])
        c2 = np.array([80.0, 30, 10, 5, 3, 2])
        total = 6
        sizes, cost = partition_cost_curves([c1, c2], total)
        best = min(
            c1[s1] + c2[s2]
            for s1 in range(len(c1))
            for s2 in range(len(c2))
            if s1 + s2 <= total
        )
        assert cost == pytest.approx(best)
        assert sum(sizes) <= total

    def test_exhaustive_three_way(self):
        rng = np.random.default_rng(7)
        curves = []
        for _ in range(3):
            vals = np.sort(rng.uniform(0, 50, size=6))[::-1].copy()
            curves.append(vals)
        total = 8
        sizes, cost = partition_cost_curves([c.copy() for c in curves], total)
        # Exhaustive optimum over the hulls.
        from oracles.partition import _lower_convex_hull

        hulls = [_lower_convex_hull(c) for c in curves]
        best = min(
            sum(h[s] for h, s in zip(hulls, combo))
            for combo in itertools.product(range(6), repeat=3)
            if sum(combo) <= total
        )
        assert cost == pytest.approx(best, rel=1e-9)

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError, match="total_chunks"):
            partition_cost_curves([np.array([5.0, 1])], 0)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="total_chunks"):
            partition_cost_curves([np.array([5.0, 1])], -3)

    def test_no_consumers_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            partition_cost_curves([], 5)

    def test_single_point_curve_rejected(self):
        with pytest.raises(ValueError, match="at least 2 points"):
            partition_cost_curves([np.array([5.0, 1]), np.array([2.0])], 5)


class TestPartitionCapacity:
    def test_respects_chunk_grid(self):
        a = curve([10, 2, 0])
        b = curve([10, 8, 6])
        sizes, __ = partition_capacity([a, b], total_bytes=2048)
        assert all(s % 1024 == 0 for s in sizes)
        assert sum(sizes) <= 2048

    def test_starving_the_streaming_pool(self):
        """A pool with a flat curve gets nothing; the cacheable pool wins."""
        cacheable = curve([100, 50, 5, 0, 0])
        streaming = curve([100, 99, 98, 97, 96])
        sizes, __ = partition_capacity([cacheable, streaming], total_bytes=3 * 1024)
        assert sizes[0] == 3 * 1024
        assert sizes[1] == 0

    def test_empty_list(self):
        assert partition_capacity([], 1024) == ([], 0.0)

    def test_sub_chunk_capacity(self):
        """Less than one whole chunk: everyone sits at their size-0 cost."""
        a = curve([10, 2, 0])
        b = curve([20, 8, 6])
        sizes, cost = partition_capacity([a, b], total_bytes=512)
        assert sizes == [0, 0]
        assert cost == pytest.approx((10 + 20) / 1000.0)

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            partition_capacity([curve([1, 0], chunk=64), curve([1, 0])], 1024)


class TestPartitionedMissCurve:
    def test_below_combined_curve(self):
        """Partitioning never does worse than sharing (paper Sec 4.2)."""
        a = curve([100, 40, 10, 2, 0, 0, 0, 0])
        b = curve([90, 88, 86, 84, 82, 80, 78, 76])
        part = partitioned_miss_curve(a, b)
        comb = combine_miss_curves(a, b)
        assert np.all(part.misses <= comb.misses + 1e-6)

    def test_equals_sum_at_extremes(self):
        a = curve([50, 20, 0])
        b = curve([30, 10, 0])
        part = partitioned_miss_curve(a, b)
        assert part.misses[0] == pytest.approx(80)
        # With enough space for both working sets, misses reach the floor.
        assert part.misses[-1] >= 0

    def test_symmetric(self):
        a = curve([100, 30, 5, 0])
        b = curve([60, 50, 40, 35])
        ab = partitioned_miss_curve(a, b)
        ba = partitioned_miss_curve(b, a)
        assert np.allclose(ab.misses, ba.misses)

    def test_similar_pools_small_distance(self):
        """Two cache-friendly pools interfere little (Fig 15, left)."""
        m1 = curve([100, 20, 2, 0, 0, 0, 0, 0, 0])
        m2 = curve([100, 25, 3, 0, 0, 0, 0, 0, 0])
        m3 = curve([100, 98, 96, 94, 92, 90, 88, 86, 84])  # antagonist
        d12 = float(
            np.sum(combine_miss_curves(m1, m2).misses - partitioned_miss_curve(m1, m2).misses)
        )
        d13 = float(
            np.sum(combine_miss_curves(m1, m3).misses - partitioned_miss_curve(m1, m3).misses)
        )
        assert d13 > d12

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.floats(0, 100), min_size=3, max_size=15),
        st.lists(st.floats(0, 100), min_size=3, max_size=15),
    )
    def test_partitioned_never_above_combined(self, va, vb):
        n = max(len(va), len(vb)) - 1
        a = curve(va).extended(n)
        b = curve(vb).extended(n)
        part = partitioned_miss_curve(a, b)
        comb = combine_miss_curves(a, b)
        tol = 1e-6 * max(1.0, float(comb.misses[0]))
        assert np.all(part.misses <= comb.misses + tol)
