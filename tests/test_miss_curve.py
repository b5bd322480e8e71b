"""Unit tests for the MissCurve container."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.curves import MissCurve
from repro.curves.miss_curve import interp_rows


def curve(values, chunk=1024, accesses=None, instr=1000.0):
    values = np.asarray(values, dtype=float)
    return MissCurve(
        misses=values,
        chunk_bytes=chunk,
        accesses=float(values[0]) if accesses is None else accesses,
        instructions=instr,
    )


class TestConstruction:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MissCurve(np.array([]), chunk_bytes=64, accesses=0, instructions=1)

    def test_rejects_bad_chunk(self):
        with pytest.raises(ValueError):
            MissCurve(np.ones(3), chunk_bytes=0, accesses=1, instructions=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("pos", [0, 1, 3])
    def test_rejects_non_finite(self, bad, pos):
        # [inf, 3, 1, 0] is already normalized: only misses[0] is checked.
        values = [8.0, 3.0, 1.0, 0.0]
        values[pos] = bad
        with pytest.raises(ValueError, match="finite"):
            curve(values)

    def test_monotonicity_enforced(self):
        c = curve([10, 5, 7, 3])
        assert list(c.misses) == [10, 5, 5, 3]

    def test_zero_factory(self):
        c = MissCurve.zero(4, 1024)
        assert c.n_chunks == 4
        assert c.accesses == 0
        assert np.all(c.misses == 0)


class TestEvaluation:
    def test_interpolation(self):
        c = curve([10, 6, 2])
        assert c.misses_at(0) == 10
        assert c.misses_at(512) == 8  # halfway through first chunk
        assert c.misses_at(2048) == 2

    def test_clamps_past_end(self):
        c = curve([10, 2])
        assert c.misses_at(1 << 30) == 2

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            curve([1, 0]).misses_at(-1)

    def test_mpki(self):
        c = curve([10, 2], instr=1000.0)
        assert c.mpki_at(0) == 10.0

    def test_apki(self):
        c = curve([10, 2], accesses=50.0, instr=1000.0)
        assert c.apki == 50.0

    def test_clamp_starts_exactly_at_last_column(self):
        # pos == n_chunks is the first out-of-domain point; it must
        # already take the clamp branch, not index past the array.
        c = curve([10, 6, 2])  # n_chunks == 2, grid ends at 2048
        assert c.misses_at(2 * 1024) == 2
        assert c.misses_at(2 * 1024 + 1) == 2


class TestInterpRows:
    """``interp_rows`` must share ``misses_at``'s exact domain contract."""

    def test_matches_misses_at_including_boundaries(self):
        c = curve([10.0, 6.0, 2.0])
        matrix = np.tile(c.misses, (6, 1))
        sizes = np.array([0.0, 512.0, 1024.0, 2047.0, 2048.0, 1e9])
        pos = sizes / c.chunk_bytes
        got = interp_rows(matrix, pos)
        want = np.array([c.misses_at(s) for s in sizes])
        assert np.array_equal(got, want)

    def test_negative_pos_rejected(self):
        # Regression: int truncation rounds toward zero, so a negative
        # position used to silently extrapolate off the first segment
        # instead of raising like the serial oracle.
        with pytest.raises(ValueError, match="non-negative"):
            interp_rows(np.ones((2, 3)), np.array([0.5, -0.25]))

    def test_misses_at_negative_rejected_same_way(self):
        with pytest.raises(ValueError, match="non-negative"):
            curve([1, 0]).misses_at(-1e-9)

    def test_single_column_matrix_clamps(self):
        matrix = np.array([[7.0], [3.0]])
        got = interp_rows(matrix, np.array([0.0, 123.0]))
        assert np.array_equal(got, np.array([7.0, 3.0]))

    @given(
        values=st.lists(
            st.floats(0, 100, allow_nan=False), min_size=2, max_size=12
        ),
        frac=st.floats(0, 1, exclude_max=True, allow_nan=False),
    )
    def test_property_row_equals_scalar(self, values, frac):
        c = curve(values)
        size = frac * c.n_chunks * c.chunk_bytes
        got = interp_rows(
            c.misses[None, :], np.array([size / c.chunk_bytes])
        )[0]
        assert got == c.misses_at(size)


class TestTransforms:
    def test_convex_hull_below_curve(self):
        c = curve([10, 10, 10, 0, 0])  # cliff at 3 chunks
        hull = c.convex_hull()
        assert np.all(hull <= c.misses + 1e-9)
        # The hull of a cliff is the straight line to the cliff bottom.
        assert hull[1] == pytest.approx(10 * 2 / 3)

    def test_convex_hull_of_convex_curve_is_identity(self):
        vals = [16, 8, 4, 2, 1, 1]
        c = curve(vals)
        assert np.allclose(c.convex_hull(), vals)

    def test_hull_endpoints_preserved(self):
        c = curve([9, 9, 1, 1, 0])
        hull = c.convex_hull()
        assert hull[0] == 9
        assert hull[-1] == 0

    def test_extended_pads_with_floor(self):
        c = curve([4, 2])
        e = c.extended(4)
        assert list(e.misses) == [4, 2, 2, 2, 2]
        assert e.accesses == c.accesses

    def test_extended_cannot_shrink(self):
        with pytest.raises(ValueError):
            curve([4, 2, 1]).extended(1)

    def test_resampled_preserves_endpoints(self):
        c = curve([8, 6, 4, 2, 0])
        r = c.resampled(2)
        assert r.misses[0] == 8
        assert r.misses[-1] == 0

    def test_scaled(self):
        c = curve([8, 4], accesses=10)
        s = c.scaled(2.0)
        assert s.misses[0] == 16
        assert s.accesses == 20

    def test_merged_over_time(self):
        a = curve([8, 4], accesses=10, instr=100)
        b = curve([2, 0], accesses=5, instr=50)
        m = a.merged_over_time(b)
        assert list(m.misses) == [10, 4]
        assert m.accesses == 15
        assert m.instructions == 150

    def test_merge_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            curve([1, 0], chunk=64).merged_over_time(curve([1, 0], chunk=128))


class TestHullProperties:
    @given(
        st.lists(st.floats(0, 1000, allow_nan=False), min_size=1, max_size=50)
    )
    def test_hull_is_convex_and_below(self, values):
        c = curve(values)
        hull = c.convex_hull()
        assert np.all(hull <= c.misses + 1e-6)
        if len(hull) >= 3:
            # Discrete convexity: second differences non-negative.
            d2 = np.diff(hull, 2)
            assert np.all(d2 >= -1e-6)
