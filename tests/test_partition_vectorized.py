"""Property suite for the vectorized partitioner vs. the heapq oracle.

The vectorized engine must be *bit-identical* to
``partition_cost_curves_reference`` — same sizes, same total cost — on
every input, including adversarial float patterns (exact ties, ulp-level
hull-interpolation jitter).  The same holds one layer down for the
run-skipping convex-hull scan vs. the original monotone chain, and
beside it for the optimal-split curve vs. the serial merged-gains scan.
The oracles live in ``tests/oracles/partition.py``.
"""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles.partition import (
    _lower_convex_hull,
    partition_cost_curves_reference,
    partitioned_miss_curve_reference,
)

from repro.curves.miss_curve import MissCurve, _lower_convex_hull_fast
from repro.curves.partition import (
    partition_cost_curves,
    partitioned_miss_curve,
    partitioned_rate_rows,
)

# Finite floats with plenty of exact collisions (integers shrink well and
# tie often) plus fractional values that exercise interpolation rounding,
# and a negative zero so hull comparisons see signed zeros.
curve_value = st.one_of(
    st.integers(0, 8).map(float),
    st.floats(0, 1000, allow_nan=False, allow_infinity=False),
    st.just(-0.0),
)


def _with_tail(spec):
    """``head``, then its first minimum held flat or rising by ``steps``."""
    head, steps, rising = spec
    floor = min(head)
    tail = floor + np.cumsum(steps) if rising else np.full(len(steps), floor)
    return np.concatenate([head, tail])


def _tailed_curve(max_head):
    return st.tuples(
        st.lists(curve_value, min_size=1, max_size=max_head),
        st.lists(st.floats(0, 50), min_size=1, max_size=40),
        st.booleans(),
    ).map(_with_tail)


# The shapes the benchmark sends: a random head reaching the curve's
# first minimum, then a constant plateau (every miss curve and rate row)
# or a rising tail (latency curves past their best size).  A one-point
# head puts the minimum at index 0, a VC that prefers bypass.
tailed_curve = st.one_of(_tailed_curve(24), _tailed_curve(1))
cost_curve = st.one_of(
    st.lists(curve_value, min_size=2, max_size=24).map(np.array), tailed_curve
)
curve_set = st.lists(cost_curve, min_size=1, max_size=6)


class TestHullEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.lists(curve_value, min_size=1, max_size=60).map(np.array),
            tailed_curve,
        )
    )
    # Plateaus whose chord-test products overflow keep the full scan.
    @example(np.array([np.inf, 5.0, 5.0, 5.0]))
    @example(np.array([1e308, -1e308, -1e308, -1e308]))
    def test_fast_hull_bit_identical(self, values):
        with np.errstate(over="ignore", invalid="ignore"):
            got = _lower_convex_hull_fast(values)
            want = _lower_convex_hull(values)
        assert got.tobytes() == want.tobytes()

    def test_fast_hull_convex_decay_with_cliffs(self):
        """Convex decay with cliffs, falling to the last point (no tail to skip)."""
        rng = np.random.default_rng(5)
        for __ in range(20):
            gains = np.sort(rng.exponential(1.0, size=200)) + 1e-9
            vals = np.concatenate([[0.0], np.cumsum(gains)])[::-1].copy()
            vals[: int(rng.integers(1, 200))] += rng.uniform(1, 10)
            assert (
                _lower_convex_hull_fast(vals).tobytes()
                == _lower_convex_hull(vals).tobytes()
            )


class TestAllocatorEquality:
    @settings(max_examples=200, deadline=None)
    @given(curve_set, st.integers(1, 64))
    def test_bit_identical_to_reference(self, curves, total):
        got_sizes, got_cost = partition_cost_curves(
            [c.copy() for c in curves], total
        )
        want_sizes, want_cost = partition_cost_curves_reference(
            [c.copy() for c in curves], total
        )
        assert got_sizes == want_sizes
        assert got_cost == want_cost  # exact, not approx

    @settings(max_examples=150, deadline=None)
    @given(curve_set, st.integers(1, 64))
    def test_sizes_sum_within_budget(self, curves, total):
        sizes, __ = partition_cost_curves(curves, total)
        assert len(sizes) == len(curves)
        assert all(s >= 0 for s in sizes)
        assert sum(sizes) <= total
        assert all(s <= len(c) - 1 for s, c in zip(sizes, curves))

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.lists(curve_value, min_size=2, max_size=6).map(np.array),
            min_size=1,
            max_size=3,
        ),
        st.integers(1, 12),
    )
    def test_optimal_vs_bruteforce_dp(self, curves, total):
        """On tiny inputs, the greedy cost matches the exhaustive optimum
        over the hulls (greedy is optimal on convex curves)."""
        __, cost = partition_cost_curves([c.copy() for c in curves], total)
        hulls = [_lower_convex_hull(np.asarray(c, dtype=np.float64)) for c in curves]
        best = min(
            sum(h[s] for h, s in zip(hulls, combo))
            for combo in itertools.product(
                *(range(len(h)) for h in hulls)
            )
            if sum(combo) <= total
        )
        assert cost == pytest.approx(best, rel=1e-9, abs=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(curve_set, st.integers(1, 40))
    def test_allocation_monotone_in_capacity(self, curves, total):
        """More capacity never shrinks any consumer's allocation."""
        small, __ = partition_cost_curves([c.copy() for c in curves], total)
        large, __ = partition_cost_curves([c.copy() for c in curves], total + 1)
        assert all(lg >= sm for sm, lg in zip(small, large))


class TestValidationRegressions:
    """The silent fall-through cases now fail loudly."""

    def test_empty_curve_list(self):
        with pytest.raises(ValueError, match="must not be empty"):
            partition_cost_curves([], 4)

    @pytest.mark.parametrize("total", [0, -1, -100])
    def test_non_positive_capacity(self, total):
        with pytest.raises(ValueError, match="total_chunks must be positive"):
            partition_cost_curves([np.array([3.0, 1.0])], total)

    def test_single_point_curve(self):
        with pytest.raises(ValueError, match="at least 2 points"):
            partition_cost_curves([np.array([7.0])], 4)

    def test_two_dimensional_curve(self):
        with pytest.raises(ValueError, match="1-D"):
            partition_cost_curves([np.zeros((2, 2))], 4)

    def test_error_names_offending_curve(self):
        with pytest.raises(ValueError, match="cost curve 1"):
            partition_cost_curves([np.array([3.0, 1.0]), np.array([7.0])], 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_curve(self, bad):
        # NaN has no order, so the greedy's answer would depend on the
        # engine (the unvalidated oracle returns ([2, 1], 3.0) here).
        with pytest.raises(ValueError, match="cost curve 0 must be finite"):
            partition_cost_curves(
                [np.array([5.0, bad, 1.0, 0.0]), np.array([4.0, 2.0, 1.0])], 3
            )


class TestPartitionedCurveBatch:
    """One-row optimal-split curves vs the serial merged-gains scan."""

    @staticmethod
    def _curve(values, instr=1000.0):
        values = np.asarray(values, dtype=float)
        return MissCurve(
            misses=values,
            chunk_bytes=1024,
            accesses=float(values[0]),
            instructions=instr,
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.lists(curve_value, min_size=2, max_size=24),
                st.floats(1e-6, 1e7, allow_nan=False),
                st.lists(curve_value, min_size=2, max_size=24),
                st.floats(1e-6, 1e7, allow_nan=False),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_batch_bit_identical_to_serial(self, specs):
        # Each curve draws its own length, so most pairs are ragged.
        for va, ia, vb, ib in specs:
            a, b = self._curve(va, ia), self._curve(vb, ib)
            got = partitioned_miss_curve(a, b)
            want = partitioned_miss_curve_reference(a, b)
            assert np.array_equal(got.misses, want.misses)
            assert got.chunk_bytes == want.chunk_bytes
            assert got.accesses == want.accesses
            assert got.instructions == want.instructions

    def test_empty_batch(self):
        rows = partitioned_rate_rows(np.zeros((0, 5)), np.zeros((0, 5)))
        assert rows.shape == (0, 5)

    def test_chunk_mismatch_rejected(self):
        a = self._curve([2.0, 1.0])
        b = MissCurve(np.array([2.0, 1.0]), 2048, 2.0, 1000.0)
        with pytest.raises(ValueError, match="chunk_bytes"):
            partitioned_miss_curve(a, b)

    def test_rate_rows_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            partitioned_rate_rows(np.zeros((2, 5)), np.zeros((2, 6)))
