"""Differential tests: batched combine engine vs the serial oracles.

The oracles are the scalar Listing-1 loops in ``tests/oracles/combine.py``.
The batched kernels replay the serial loops' IEEE expressions
elementwise across the batch axis (or, for narrow combine batches, lane
by lane in Python floats), so every comparison here is *exact*
(``np.array_equal`` / ``==``), not approximate — the same contract the
stack-distance and partitioning engines are held to.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.combine import (
    combine_miss_curves_reference,
    shared_cache_misses_reference,
)

from repro.curves import MissCurve, combine
from repro.curves.combine import (
    _LANE_LOOP_MAX_BATCH,
    _read,
    advance_flow_heads,
    combine_miss_curves,
    combine_rate_rows,
    shared_cache_misses,
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
        # Each curve draws its own length, so most pairs are ragged.
        for va, ia, vb, ib in specs:
            a, b = curve(va, instr=ia), curve(vb, instr=ib)
            assert_curves_identical(
                combine_miss_curves(a, b), combine_miss_curves_reference(a, b)
            )

    def test_ragged_grids_grouped_per_pair(self):
        """Each pair extends to its own longer grid, exactly."""
        pairs = [
            (curve([100, 10, 0]), curve([50] * 8)),
            (curve([7, 3]), curve([9, 1])),
            (curve([100] * 12), curve([60, 20, 5])),
        ]
        for a, b in pairs:
            got = combine_miss_curves(a, b)
            assert got.n_chunks == max(a.n_chunks, b.n_chunks)
            assert_curves_identical(got, combine_miss_curves_reference(a, b))

    def test_zero_flow_lanes_freeze(self):
        """All-zero pairs (flow stops immediately) stay bit-identical."""
        z = MissCurve.zero(6, CHUNK, instructions=1000.0)
        live = curve(100 * np.power(0.5, np.arange(7)))
        for a, b in [(z, z), (live, z), (z, live)]:
            assert_curves_identical(
                combine_miss_curves(a, b), combine_miss_curves_reference(a, b)
            )

    def test_chunk_mismatch_rejected(self):
        a = curve([1, 0])
        b = MissCurve(np.array([1.0, 0.0]), 2 * CHUNK, 1.0, 1000.0)
        with pytest.raises(ValueError, match="chunk_bytes"):
            combine_miss_curves(a, b)

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

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.one_of(st.floats(0, 1000, allow_nan=False), st.just(-0.0)),
            min_size=1,
            max_size=24,
        ),
        st.integers(0, 8),
        instr_values,
        st.one_of(st.integers(0, 40), st.sampled_from(["width", "past"])),
    )
    def test_one_curve_bit_identical_to_reference(self, head, zeros, instr, steps):
        # A lone stream takes advance_flow_heads' closed form: a
        # zero-flow tail (or a -0.0 rate) stops it, and so do the steps.
        c = curve(head + [0.0] * zeros, instr=instr)
        if steps == "width":
            steps = c.n_chunks
        elif steps == "past":
            steps = c.n_chunks + 5
        size = steps * CHUNK
        assert shared_cache_misses([c], size) == shared_cache_misses_reference([c], size)

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
    """``combine_miss_curves_reference``'s scalar loop, on raw rate rows."""
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


#: One batch size on each side of ``combine_rate_rows``' crossover: the
#: first runs lane by lane, the second runs the vectorized step loop.
BOTH_LOOPS = (1, _LANE_LOOP_MAX_BATCH + 1)


def _tiled(rows, lanes):
    """``rows`` repeated whole until there are at least ``lanes`` of them."""
    return np.tile(rows, (-(-lanes // len(rows)), 1))


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
        for lanes in BOTH_LOOPS:
            r1 = _tiled(np.array([[2.0], [0.0], [0.5]]), lanes)
            r2 = _tiled(np.array([[1.0], [0.0], [0.0]]), lanes)
            got = combine_rate_rows(r1, r2)
            assert got.tobytes() == listing1_rows(r1, r2).tobytes()
        rates = np.array([[2.0], [0.0], [1.0], [0.0]])
        included = np.ones((2, 2), dtype=bool)
        got = advance_flow_heads(rates, included, 3)
        assert got.tobytes() == flow_heads_scalar(rates, included, 3).tobytes()

    def test_lanes_freeze_at_different_steps(self):
        # Each lane's flow reaches zero once both heads pass its last
        # nonzero rate, at a different step per lane.  Two more lanes
        # stop at the first step, on a flow of -0.0 and of -0.5, which a
        # frozen lane repeats to the end of its row.
        rows = np.array(
            [np.maximum(c - np.arange(12.0), 0.0) for c in (1.0, 2.0, 4.0, 0.0)]
        )
        r1 = np.concatenate([rows, [np.full(12, -0.0), np.full(12, -1.0)]])
        r2 = np.concatenate([rows, [np.full(12, -0.0), np.full(12, 0.5)]])
        for lanes in BOTH_LOOPS:
            t1, t2 = _tiled(r1, lanes), _tiled(r2, lanes)
            got = combine_rate_rows(t1, t2)
            assert got.tobytes() == listing1_rows(t1, t2).tobytes()
            frozen_at = [int(np.flatnonzero(r == 0.0)[0]) for r in got[:4]]
            assert sorted(frozen_at) == [0, 2, 4, 8]
            assert got[4].tobytes() == np.full(12, -0.0).tobytes()
            assert (got[5] == -0.5).all()
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
    @given(
        st.lists(st.tuples(real_row, real_row), min_size=1, max_size=4),
        st.one_of(
            st.integers(1, _LANE_LOOP_MAX_BATCH),
            st.integers(_LANE_LOOP_MAX_BATCH + 1, _LANE_LOOP_MAX_BATCH + 8),
        ),
    )
    def test_wide_rows_bit_identical_to_scalar(self, pairs, batch):
        # Batch sizes from each side of the crossover about equally often
        # (plain integers would mostly be small).  Lanes cycle through the
        # drawn pairs, so a batch does not draw 32 rows per example.
        lanes = [pairs[i % len(pairs)] for i in range(batch)]
        r1 = np.array([a for a, __ in lanes])
        r2 = np.array([b for __, b in lanes])
        got = combine_rate_rows(r1, r2)
        assert got.tobytes() == listing1_rows(r1, r2).tobytes()

    def test_batch_size_picks_the_loop(self, monkeypatch):
        # The tests here run each case on both sides of the crossover;
        # this pins which loop each side reaches.
        lane_calls = []
        lane = combine._combine_lane

        def counting_lane(r1, r2):
            lane_calls.append(len(r1))
            return lane(r1, r2)

        monkeypatch.setattr(combine, "_combine_lane", counting_lane)
        rows = np.linspace(1.0, 0.25, 7)
        for batch, want in (
            (_LANE_LOOP_MAX_BATCH, _LANE_LOOP_MAX_BATCH),
            (_LANE_LOOP_MAX_BATCH + 1, 0),
        ):
            lane_calls.clear()
            r1 = np.tile(rows, (batch, 1))
            got = combine_rate_rows(r1, r1[:, ::-1])
            assert got.tobytes() == listing1_rows(r1, r1[:, ::-1]).tobytes()
            assert len(lane_calls) == want

    def test_non_finite_rows_raise(self):
        # Checked once per call, before either loop reads a row: NaN or
        # infinite rates would otherwise poison or overflow a read head.
        for lanes in BOTH_LOOPS:
            for bad in (np.nan, np.inf, -np.inf):
                good = np.tile(np.linspace(1.0, 0.25, 9), (lanes, 1))
                poisoned = good.copy()
                poisoned[-1] = bad
                with pytest.raises(ValueError, match="finite"):
                    combine_rate_rows(poisoned, good)
                with pytest.raises(ValueError, match="finite"):
                    combine_rate_rows(good, poisoned)
                included = np.ones((2, lanes), dtype=bool)
                with pytest.raises(ValueError, match="finite"):
                    advance_flow_heads(np.concatenate([good, poisoned]), included, 8)

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

    def test_lone_stream_lanes_bit_identical_to_scalar(self):
        # One batch with lanes of no stream, one stream (each of the
        # three) and several streams, over rows that stop at a zero-flow
        # tail, at a -0.0 rate or not at all, for step counts of 0, inside
        # the grid, at its width and past it.
        width = 12
        falling = np.maximum(6.0 - np.arange(width), 0.0)
        signed = np.where(np.arange(width) < 4, 1.5, -0.0)
        rows = np.array([falling, signed, np.full(width, 0.25)])
        masks = [(), (0,), (1,), (2,), (0, 1), (0, 1, 2), (2,), ()]
        included = np.array([[k in m for m in masks] for k in range(3)])
        batch = len(masks)
        rates = np.concatenate([np.roll(rows, b, axis=0) for b in range(batch)])
        rates = rates.reshape(batch, 3, width).transpose(1, 0, 2).reshape(-1, width)
        for steps in (0, 1, 5, width - 1, width, width + 7):
            got = advance_flow_heads(rates, included, steps)
            want = flow_heads_scalar(rates, included, steps)
            assert got.tobytes() == want.tobytes()

    def test_lone_stream_lanes_skip_the_step_loop(self, monkeypatch):
        # Lanes with at most one stream land in closed form: the step
        # loop's reader is never asked for a read.
        reads = []
        reader = combine._row_reader

        def counting_reader(matrix):
            read = reader(matrix)

            def counted(pos):
                reads.append(len(pos))
                return read(pos)

            return counted

        monkeypatch.setattr(combine, "_row_reader", counting_reader)
        rates = np.tile(np.linspace(1.0, 0.25, 9), (6, 1))
        for streams, stepped in (((1, 0, 1), False), ((1, 0, 2), True)):
            included = np.array([[k < n for n in streams] for k in range(2)])
            reads.clear()
            got = advance_flow_heads(rates, included, 20)
            assert got.tobytes() == flow_heads_scalar(rates, included, 20).tobytes()
            assert bool(reads) is stepped

    def test_head_driven_negative_raises(self):
        # A negative rate moves its head backwards: the next read is below
        # the grid, which interp_rows rejects.
        r1 = np.array([[-1.0, -1.0, -1.0]])
        r2 = np.array([[3.0, 3.0, 3.0]])
        for lanes in BOTH_LOOPS:
            with pytest.raises(ValueError, match="non-negative"):
                combine_rate_rows(_tiled(r1, lanes), _tiled(r2, lanes))
        with pytest.raises(ValueError, match="non-negative"):
            advance_flow_heads(np.concatenate([r1, r2]), np.ones((2, 1), dtype=bool), 3)
