"""Differential tests: batched combine engine vs the serial oracles.

The batched kernels replay the serial loops' IEEE expressions
elementwise across the batch axis, so every comparison here is *exact*
(``np.array_equal`` / ``==``), not approximate — the same contract the
stack-distance and partitioning engines are held to.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.curves import MissCurve
from repro.curves.combine import (
    _read,
    advance_flow_heads,
    combine_many,
    combine_miss_curves,
    combine_miss_curves_batch,
    combine_rate_rows,
    shared_cache_misses,
    shared_cache_misses_reference,
)

CHUNK = 1024


def curve(values, instr=1000.0, accesses=None):
    values = np.asarray(values, dtype=float)
    return MissCurve(
        misses=values,
        chunk_bytes=CHUNK,
        accesses=float(values[0]) if accesses is None else accesses,
        instructions=instr,
    )


curve_values = st.lists(
    st.floats(0, 1000, allow_nan=False), min_size=2, max_size=24
)
instr_values = st.floats(1e-6, 1e7, allow_nan=False)


def assert_curves_identical(got: MissCurve, want: MissCurve):
    assert np.array_equal(got.misses, want.misses)
    assert got.chunk_bytes == want.chunk_bytes
    assert got.accesses == want.accesses
    assert got.instructions == want.instructions


class TestCombineBatchVsOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(curve_values, instr_values, curve_values, instr_values),
            min_size=1,
            max_size=6,
        )
    )
    def test_batch_bit_identical_to_serial(self, specs):
        pairs = [
            (curve(va, instr=ia), curve(vb, instr=ib))
            for va, ia, vb, ib in specs
        ]
        got = combine_miss_curves_batch(pairs)
        for (a, b), g in zip(pairs, got):
            assert_curves_identical(g, combine_miss_curves(a, b))

    def test_ragged_grids_grouped_per_pair(self):
        """Pairs with different grid lengths batch by group, exactly."""
        pairs = [
            (curve([100, 10, 0]), curve([50] * 8)),
            (curve([7, 3]), curve([9, 1])),
            (curve([100] * 12), curve([60, 20, 5])),
        ]
        got = combine_miss_curves_batch(pairs)
        for (a, b), g in zip(pairs, got):
            assert_curves_identical(g, combine_miss_curves(a, b))

    def test_zero_flow_lanes_freeze(self):
        """All-zero pairs (flow stops immediately) stay bit-identical."""
        z = MissCurve.zero(6, CHUNK, instructions=1000.0)
        live = curve(100 * np.power(0.5, np.arange(7)))
        pairs = [(z, z), (live, z), (z, live)]
        got = combine_miss_curves_batch(pairs)
        for (a, b), g in zip(pairs, got):
            assert_curves_identical(g, combine_miss_curves(a, b))

    def test_empty_batch(self):
        assert combine_miss_curves_batch([]) == []

    def test_chunk_mismatch_rejected(self):
        a = curve([1, 0])
        b = MissCurve(np.array([1.0, 0.0]), 2 * CHUNK, 1.0, 1000.0)
        with pytest.raises(ValueError):
            combine_miss_curves_batch([(a, b)])

    def test_rate_rows_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            combine_rate_rows(np.zeros((2, 5)), np.zeros((3, 5)))


class TestSharedCacheMisses:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(curve_values, instr_values), min_size=1, max_size=7
        ),
        st.floats(0, 64, allow_nan=False),
    )
    def test_vectorized_bit_identical_to_reference(self, specs, size_chunks):
        curves = [curve(v, instr=i) for v, i in specs]
        size = size_chunks * CHUNK
        got = shared_cache_misses(curves, size)
        want = shared_cache_misses_reference(curves, size)
        assert got == want

    def test_empty(self):
        assert shared_cache_misses([], 1024.0) == []
        assert shared_cache_misses_reference([], 1024.0) == []

    def test_chunk_mismatch_rejected(self):
        a = curve([1, 0])
        b = MissCurve(np.array([1.0, 0.0]), 2 * CHUNK, 1.0, 1000.0)
        with pytest.raises(ValueError):
            shared_cache_misses([a, b], 4096.0)

    def test_zero_flow_stops_early(self):
        """Once every stream stops missing, heads freeze in both engines."""
        curves = [curve([10, 0, 0, 0, 0]), curve([4, 0, 0, 0, 0])]
        got = shared_cache_misses(curves, 100 * CHUNK)
        want = shared_cache_misses_reference(curves, 100 * CHUNK)
        assert got == want


#: The online classifier's grid width (400 chunks).
WIDE = 401


def _real_row(spec):
    """A decaying head to the row's minimum, then a flat or rising tail."""
    head, step, rising = spec
    head = np.sort(np.array(head))[::-1]
    tail = np.full(WIDE - len(head), head[-1])
    if rising:
        tail = tail + np.cumsum(np.full(len(tail), step))
    return np.concatenate([head, tail])


# Rate rows shaped like the ones clustering and S-NUCA accounting send:
# misses per instruction fall to a floor early in the grid and stay
# there (or rise, as a latency-shaped row would); an all-zero row is a
# lane whose flow stops at the first step.
real_row = st.one_of(
    st.tuples(
        st.lists(
            st.one_of(st.floats(0, 1, allow_nan=False), st.just(-0.0)),
            min_size=1,
            max_size=80,
        ),
        st.floats(0, 1e-3, allow_nan=False),
        st.booleans(),
    ).map(_real_row),
    st.just(np.zeros(WIDE)),
)


def listing1_rows(r1, r2):
    """:func:`combine_miss_curves`' scalar loop, on raw rate rows."""
    out = np.empty(r1.shape)
    for b in range(len(r1)):
        s1 = s2 = 0.0
        for s in range(r1.shape[1]):
            f1 = _read(r1[b], s1)
            f2 = _read(r2[b], s2)
            f = f1 + f2
            out[b, s] = f
            if f > 0:
                s1 += f1 / f
                s2 += f2 / f
    return out


def flow_heads_scalar(rates_flat, included, steps):
    """:func:`shared_cache_misses_reference`'s head loop, lane by lane."""
    n_streams, batch = included.shape
    heads = np.zeros(n_streams * batch)
    for b in range(batch):
        rows = [k * batch + b for k in range(n_streams) if included[k, b]]
        h = [0.0] * len(rows)
        for __ in range(steps):
            flows = [_read(rates_flat[r], x) for r, x in zip(rows, h)]
            f = sum(flows)
            if f <= 0:
                break
            for i, flow in enumerate(flows):
                h[i] += flow / f
        heads[rows] = h
    return heads


class TestRateRowKernels:
    """``combine_rate_rows`` and ``advance_flow_heads``, called directly."""

    def test_empty_batch(self):
        assert combine_rate_rows(np.zeros((0, 5)), np.zeros((0, 5))).shape == (0, 5)
        heads = advance_flow_heads(np.zeros((0, 5)), np.zeros((2, 0), dtype=bool), 4)
        assert heads.shape == (0,)

    def test_single_column_grid(self):
        r1 = np.array([[2.0], [0.0], [0.5]])
        r2 = np.array([[1.0], [0.0], [0.0]])
        got = combine_rate_rows(r1, r2)
        assert got.tobytes() == listing1_rows(r1, r2).tobytes()
        rates = np.array([[2.0], [0.0], [1.0], [0.0]])
        included = np.ones((2, 2), dtype=bool)
        got = advance_flow_heads(rates, included, 3)
        assert got.tobytes() == flow_heads_scalar(rates, included, 3).tobytes()

    def test_lanes_freeze_at_different_steps(self):
        # Each lane's flow reaches zero once both heads pass its last
        # nonzero rate, at a different step per lane.
        rows = np.array(
            [np.maximum(c - np.arange(12.0), 0.0) for c in (1.0, 2.0, 4.0, 0.0)]
        )
        got = combine_rate_rows(rows, rows)
        assert got.tobytes() == listing1_rows(rows, rows).tobytes()
        frozen_at = [int(np.flatnonzero(r == 0.0)[0]) for r in got]
        assert sorted(frozen_at) == [0, 2, 4, 8]
        rates = np.concatenate([rows, rows[::-1]])
        included = np.ones((2, 4), dtype=bool)
        for steps in (0, 1, 5, 40):
            got = advance_flow_heads(rates, included, steps)
            want = flow_heads_scalar(rates, included, steps)
            assert got.tobytes() == want.tobytes()

    def test_heads_past_the_grid_read_the_last_column(self):
        # Two streams on a 4-point grid for 20 steps: both heads run past
        # the final column, where reads clamp to it instead of following
        # the rising last segment.
        rates = np.array([[1.0, 1.0, 1.0, 2.0], [1.0, 1.0, 1.0, 1.0]])
        included = np.ones((2, 1), dtype=bool)
        got = advance_flow_heads(rates, included, 20)
        assert got.tobytes() == flow_heads_scalar(rates, included, 20).tobytes()
        assert (got > 3).all()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(real_row, real_row), min_size=1, max_size=4))
    def test_wide_rows_bit_identical_to_scalar(self, pairs):
        r1 = np.array([a for a, __ in pairs])
        r2 = np.array([b for __, b in pairs])
        got = combine_rate_rows(r1, r2)
        assert got.tobytes() == listing1_rows(r1, r2).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(
        n_streams=st.integers(1, 3),
        batch=st.integers(1, 3),
        steps=st.integers(0, 450),
        data=st.data(),
    )
    def test_wide_flow_heads_bit_identical_to_scalar(
        self, n_streams, batch, steps, data
    ):
        size = n_streams * batch
        rates = np.array(data.draw(st.lists(real_row, min_size=size, max_size=size)))
        included = np.array(
            data.draw(st.lists(st.booleans(), min_size=size, max_size=size))
        ).reshape(n_streams, batch)
        got = advance_flow_heads(rates, included, steps)
        want = flow_heads_scalar(rates, included, steps)
        assert got.tobytes() == want.tobytes()

    def test_head_driven_negative_raises(self):
        # A negative rate moves its head backwards: the next read is below
        # the grid, which interp_rows rejects.
        r1 = np.array([[-1.0, -1.0, -1.0]])
        r2 = np.array([[3.0, 3.0, 3.0]])
        with pytest.raises(ValueError, match="non-negative"):
            combine_rate_rows(r1, r2)
        with pytest.raises(ValueError, match="non-negative"):
            advance_flow_heads(np.concatenate([r1, r2]), np.ones((2, 1), dtype=bool), 3)


class TestCombineManyTree:
    def test_tree_fold_four_curves(self):
        cs = [
            curve(100 * np.power(d, np.arange(13)))
            for d in (0.5, 0.6, 0.7, 0.8)
        ]
        want = combine_miss_curves(
            combine_miss_curves(cs[0], cs[1]),
            combine_miss_curves(cs[2], cs[3]),
        )
        assert_curves_identical(combine_many(cs), want)

    def test_odd_leftover_carried(self):
        cs = [curve(100 * np.power(d, np.arange(9))) for d in (0.5, 0.7, 0.9)]
        want = combine_miss_curves(combine_miss_curves(cs[0], cs[1]), cs[2])
        assert_curves_identical(combine_many(cs), want)

    def test_single_curve_identity(self):
        c = curve([5, 1, 0])
        assert combine_many([c]) is c

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            combine_many([])
