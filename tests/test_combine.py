"""Unit + property tests for the Appendix-B combined-curve model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curves import MissCurve, combine_miss_curves


def curve(values, chunk=1024, instr=1000.0):
    values = np.asarray(values, dtype=float)
    return MissCurve(
        misses=values, chunk_bytes=chunk, accesses=float(values[0]), instructions=instr
    )


def exp_curve(rate0, decay, n, chunk=1024, instr=1000.0):
    vals = rate0 * np.power(decay, np.arange(n + 1))
    return curve(vals, chunk=chunk, instr=instr)


class TestBasics:
    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            combine_miss_curves(curve([1, 0], chunk=64), curve([1, 0], chunk=128))

    def test_combining_with_zero_curve_is_identity(self):
        a = exp_curve(100, 0.5, 10)
        z = MissCurve.zero(10, 1024, instructions=1000.0)
        c = combine_miss_curves(a, z)
        assert np.allclose(c.misses, a.misses, rtol=1e-6)

    def test_size_zero_is_sum_of_peaks(self):
        a = curve([10, 0, 0])
        b = curve([6, 6, 0])
        c = combine_miss_curves(a, b)
        assert c.misses[0] == pytest.approx(16)

    def test_combined_needs_more_space_than_either(self):
        """Sharing never beats giving one pool the whole cache for itself."""
        a = exp_curve(100, 0.6, 20)
        b = exp_curve(80, 0.7, 20)
        c = combine_miss_curves(a, b)
        for s in range(21):
            assert c.misses[s] >= a.misses[s] - 1e-6
            assert c.misses[s] >= b.misses[s] - 1e-6

    def test_non_increasing(self):
        a = exp_curve(100, 0.8, 30)
        b = curve([50] * 10 + [0] * 21)
        c = combine_miss_curves(a, b)
        assert np.all(np.diff(c.misses) <= 1e-9)

    def test_accesses_add(self):
        a = exp_curve(10, 0.5, 5)
        b = exp_curve(20, 0.5, 5)
        assert combine_miss_curves(a, b).accesses == a.accesses + b.accesses


class TestPaperProperties:
    """Properties the paper claims for the model (Appendix B)."""

    def test_commutative(self):
        a = exp_curve(100, 0.6, 25)
        b = curve([70] * 12 + [5] * 14)
        ab = combine_miss_curves(a, b)
        ba = combine_miss_curves(b, a)
        assert np.allclose(ab.misses, ba.misses, rtol=1e-9)

    def test_associative_up_to_interpolation(self):
        a = exp_curve(100, 0.7, 30)
        b = exp_curve(60, 0.8, 30)
        c = curve([40] * 10 + [2] * 21)
        left = combine_miss_curves(combine_miss_curves(a, b), c)
        right = combine_miss_curves(a, combine_miss_curves(b, c))
        scale = max(left.misses[0], 1.0)
        assert np.allclose(left.misses / scale, right.misses / scale, atol=0.05)

    def test_self_similar_recombination(self):
        """Splitting one pool in half and recombining ≈ the original.

        (Paper: 'insensitive to arbitrary divisions of a single pool into
        subpools', Fig 23b.)
        """
        full = exp_curve(100, 0.75, 40)
        half = exp_curve(50, 0.75, 40)  # same shape, half the flow...
        # A pool split in half has each subpool covering half the working
        # set: subpool curve = half the misses at half the size.
        sub_vals = np.interp(
            np.arange(41) * 2.0, np.arange(41), full.misses
        ) / 2.0
        sub = curve(sub_vals)
        recombined = combine_miss_curves(sub, sub)
        # Compare at a few sizes, loose tolerance (model is approximate).
        for s in (0, 5, 10, 20, 40):
            assert recombined.misses[s] == pytest.approx(
                full.misses[s], rel=0.25, abs=2.0
            )
        del half

    def test_infrequent_pool_changes_little(self):
        a = exp_curve(100, 0.6, 30)
        tiny = exp_curve(0.5, 0.6, 30)
        c = combine_miss_curves(a, tiny)
        assert np.all(np.abs(c.misses - a.misses) <= 0.06 * a.misses[0] + 1.0)


class TestPropertyBased:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.floats(0, 100), min_size=2, max_size=20),
        st.lists(st.floats(0, 100), min_size=2, max_size=20),
    )
    def test_result_bounded_and_monotone(self, va, vb):
        n = max(len(va), len(vb)) - 1
        a = curve(va).extended(n)
        b = curve(vb).extended(n)
        c = combine_miss_curves(a, b)
        assert np.all(np.diff(c.misses) <= 1e-6)
        assert c.misses[0] == pytest.approx(a.misses[0] + b.misses[0], rel=1e-6)
        assert np.all(c.misses >= -1e-9)
