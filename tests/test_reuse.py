"""Unit tests for stack-distance profiling."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles.reuse import (
    distances_from_prev_reference,
    dominance_counts_reference,
    stack_distances_reference,
)
from repro.curves import (
    StackDistanceProfiler,
    miss_curve_from_distances,
    reuse,
    stack_distances,
)
from repro.curves.reuse import (
    _BITMAP_MIN,
    COLD,
    _distances_from_prev,
    _dominance_counts,
    _group_by_region,
    _prev_occurrence,
)


def brute_force_distances(lines):
    """O(n^2) reference: distinct lines since the previous access."""
    out = []
    last = {}
    for i, addr in enumerate(lines):
        if addr in last:
            out.append(len(set(lines[last[addr] + 1 : i])))
        else:
            out.append(COLD)
        last[addr] = i
    return np.array(out, dtype=np.int64)


def profile_per_cell(prof, lines, regions, instructions, n_intervals):
    """The pre-vectorization profiler: one curve per (region, interval).

    Each region's sampled stream gets Fenwick distances; each interval's
    window is finalized by ``miss_curve_from_distances``, then rescaled
    to the unsampled access count.
    """
    n = len(lines)
    scale = float(1 << prof.sample_shift)
    bounds = np.linspace(0, n, n_intervals + 1).astype(np.int64)
    out = {}
    for rid in np.unique(regions).tolist():
        idx = np.nonzero(regions == rid)[0]
        keep = prof._sample_mask(lines[idx])
        kept_idx = idx[keep]
        dist = stack_distances_reference(lines[idx][keep])
        curves = []
        for t in range(n_intervals):
            lo, hi = bounds[t], bounds[t + 1]
            window = (kept_idx >= lo) & (kept_idx < hi)
            n_acc = int(np.count_nonzero((idx >= lo) & (idx < hi)))
            curve = miss_curve_from_distances(
                dist[window],
                chunk_bytes=prof.chunk_bytes,
                n_chunks=prof.n_chunks,
                instructions=instructions / n_intervals,
                line_bytes=prof.line_bytes,
                scale=scale,
                distance_scale=scale,
            )
            if curve.accesses > 0:
                misses = curve.misses * (n_acc / curve.accesses)
            else:
                misses = np.full(prof.n_chunks + 1, float(n_acc))
            curves.append((misses, float(n_acc), curve.instructions))
        out[rid] = curves
    return out


def assert_curves_bytes_equal(got, want):
    assert sorted(got) == sorted(want)
    for rid, cells in want.items():
        assert len(got[rid]) == len(cells)
        for curve, (misses, accesses, instructions) in zip(got[rid], cells):
            assert curve.misses.tobytes() == misses.tobytes()
            assert curve.accesses == accesses
            assert curve.instructions == instructions


def grouped_stream(rng, segments):
    """A region-grouped previous-occurrence array and its segment starts.

    ``segments`` lists ``(length, first_touches)`` per segment.  A
    segment opens with a first touch and places the rest of its first
    touches at random; every other access re-touches a line its segment
    has seen, so the sweep takes exactly ``length - first_touches`` of
    its accesses.
    """
    lines, regions = [], []
    for r, (length, first) in enumerate(segments):
        flags = np.zeros(length, dtype=bool)
        flags[0] = True
        flags[1 + rng.choice(length - 1, first - 1, replace=False)] = True
        seen = np.cumsum(flags)
        pick = (rng.random(length) * seen).astype(np.int64)
        lines.append(np.where(flags, seen - 1, pick))
        regions.append(np.full(length, r, dtype=np.int32))
    lines, regions = np.concatenate(lines), np.concatenate(regions)
    starts = np.searchsorted(regions, regions, side="left")
    return _prev_occurrence(lines, regions), starts


class TestStackDistances:
    def test_empty_trace(self):
        assert len(stack_distances(np.array([], dtype=np.int64))) == 0

    def test_all_cold(self):
        dist = stack_distances(np.array([1, 2, 3, 4]))
        assert np.all(dist == COLD)

    def test_immediate_reuse_is_zero(self):
        dist = stack_distances(np.array([7, 7]))
        assert dist[1] == 0

    def test_classic_example(self):
        # a b c a : distance of the second 'a' is 2 (b, c touched between).
        dist = stack_distances(np.array([1, 2, 3, 1]))
        assert dist[3] == 2

    def test_repeated_intermediate_counts_once(self):
        # a b b b a : only one distinct line between the two a's.
        dist = stack_distances(np.array([1, 2, 2, 2, 1]))
        assert dist[4] == 1

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 12), min_size=0, max_size=120))
    def test_matches_brute_force(self, lines):
        got = stack_distances(np.array(lines, dtype=np.int64))
        want = brute_force_distances(lines)
        assert np.array_equal(got, want)


class TestVectorizedEngineVsReference:
    """The vectorized engine must be bit-identical to the Fenwick oracle."""

    @settings(max_examples=120, deadline=None)
    @given(
        st.lists(st.integers(0, 40), min_size=0, max_size=400),
        st.sampled_from([0, 1, 10**9, 2**40]),
    )
    def test_identical_distance_arrays(self, lines, offset):
        arr = np.array(lines, dtype=np.int64) + offset
        assert np.array_equal(
            stack_distances(arr), stack_distances_reference(arr)
        )

    def test_single_element(self):
        got = stack_distances(np.array([7]))
        assert np.array_equal(got, stack_distances_reference(np.array([7])))
        assert got[0] == COLD

    def test_all_duplicates(self):
        arr = np.full(257, 3, dtype=np.int64)
        assert np.array_equal(
            stack_distances(arr), stack_distances_reference(arr)
        )

    def test_all_cold(self):
        arr = np.arange(1000, dtype=np.int64) * 9973
        got = stack_distances(arr)
        assert np.array_equal(got, stack_distances_reference(arr))
        assert np.all(got == COLD)

    def test_larger_than_chunk_boundaries(self):
        # Crosses the engine's internal chunking (powers of two +/- 1).
        rng = np.random.default_rng(11)
        for n in (4095, 4096, 4097, 70000):
            arr = rng.integers(0, 500, size=n)
            assert np.array_equal(
                stack_distances(arr), stack_distances_reference(arr)
            )

    @settings(max_examples=60, deadline=None)
    @given(
        lines=st.lists(st.integers(0, 31), min_size=1, max_size=300),
        picks=st.lists(st.integers(0, 4), min_size=1, max_size=300),
        region_ids=st.lists(
            st.integers(0, 2**31 - 1), min_size=1, max_size=5, unique=True
        ),
        line_step=st.sampled_from([977, 2**57]),
        n_intervals=st.integers(1, 12),
        sample_shift=st.sampled_from([0, 3]),
    )
    # Nine intervals over five accesses repeat bounds.  With shift 3 only
    # line 0 (of lines 0-7 times 977) is sampled, so region 9 has no
    # sampled access in two of three intervals and none at all in one.
    @example([1, 2, 3, 1, 2], [0, 1, 0, 1, 0], [5, 2**31 - 1], 977, 9, 0)
    @example(
        [0, 1, 2, 0, 3, 0, 4, 5, 6, 7, 0, 1],
        [0, 0, 1, 1, 0, 0, 1, 1, 1, 1, 1, 2],
        [9, 4, 6],
        977,
        3,
        3,
    )
    def test_profiler_curves_match_reference_engine(
        self, lines, picks, region_ids, line_step, n_intervals, sample_shift
    ):
        """Full MissCurve equality at sample_shift 0 and 3.

        The reference is the pre-vectorization profiler: per-region
        re-slicing with Fenwick distances and one curve per (region,
        interval).  Region ids range over [0, 2^31 - 1], and a
        ``line_step`` of 2^57 spreads lines so that span x n exceeds 2^62
        and the stable-sort fallback runs.
        """
        n = min(len(lines), len(picks))
        # Spread line values so the sampling hash selects a non-trivial
        # subset.
        lines = np.array(lines[:n], dtype=np.int64) * line_step
        regions = np.array(
            [region_ids[i % len(region_ids)] for i in picks[:n]], dtype=np.int32
        )
        prof = StackDistanceProfiler(
            chunk_bytes=1024, n_chunks=6, sample_shift=sample_shift
        )
        got = prof.profile(lines, regions, 1e4, n_intervals=n_intervals)
        assert_curves_bytes_equal(
            got, profile_per_cell(prof, lines, regions, 1e4, n_intervals)
        )

    def test_profiler_large_trace_matches_per_cell_curves(self):
        """2^15+ sampled accesses, 3 regions, 48 intervals, shift 3."""
        rng = np.random.default_rng(21)
        n = 9 << 15
        lines = (rng.integers(0, 1 << 14, size=n) * 64 + 0x7F0000000000) >> 6
        regions = np.repeat(
            rng.choice(np.array([7, 140897495, 2**31 - 1], dtype=np.int32), 512),
            n // 512,
        )
        prof = StackDistanceProfiler(
            chunk_bytes=64 * 1024, n_chunks=400, sample_shift=3
        )
        assert np.count_nonzero(prof._sample_mask(lines)) >= 1 << 15
        got = prof.profile(lines, regions, 4e6, n_intervals=48)
        assert_curves_bytes_equal(
            got, profile_per_cell(prof, lines, regions, 4e6, 48)
        )

    def test_sample_mask_keeps_the_hash_prefix(self):
        """The mask keeps a line iff its hash's top bits are zero."""
        rng = np.random.default_rng(5)
        lines = rng.integers(0, 2**62, size=5000)
        for shift in (1, 3, 7):
            prof = StackDistanceProfiler(1024, 4, sample_shift=shift)
            hashed = (lines.astype(np.uint64) * prof._HASH_MULT) >> np.uint64(
                64 - shift
            )
            assert np.array_equal(prof._sample_mask(lines), hashed == 0)


class TestSweepVsOracle:
    """The re-touch sweep against the sweep over every access."""

    @pytest.mark.parametrize(
        "retouches",
        sorted(
            {_BITMAP_MIN - 1, _BITMAP_MIN, _BITMAP_MIN + 1}
            | {(1 << b) + d for b in range(1, 18) for d in (-1, 0, 1)}
        ),
    )
    def test_sizes_around_padding_and_chunks(self, retouches):
        """Sweeps of 2^b +- 1 elements (up to 2^17 + 1) and the crossover."""
        rng = np.random.default_rng(retouches)
        a = retouches // 3
        segments = [(a + 7, 7), (1, 1), (retouches - a + 40, 40)]
        prev, starts = grouped_stream(rng, segments)
        assert np.count_nonzero(prev >= 0) == retouches
        assert np.array_equal(
            _distances_from_prev(prev), distances_from_prev_reference(prev, starts)
        )

    def test_int32_order_packs_into_wide_words(self):
        """Positions pack above bit 32, whatever dtype the order arrives in."""
        rng = np.random.default_rng(7)
        keys = rng.integers(0, 500, size=3001)
        order = np.argsort(keys, kind="stable")
        assert np.array_equal(
            _dominance_counts(keys, order.astype(np.int32)),
            dominance_counts_reference(keys, order),
        )

    @pytest.mark.parametrize("bitmap_min", [0, _BITMAP_MIN])
    def test_degenerate_segments(self, bitmap_min):
        """First-touch-only, re-touch-only and one-element segments."""
        rng = np.random.default_rng(4)
        segments = [(1, 1), (5000, 5000), (9000, 1), (1, 1), (30000, 200), (1, 1)]
        prev, starts = grouped_stream(rng, segments)
        with mock.patch.object(reuse, "_BITMAP_MIN", bitmap_min):
            got = _distances_from_prev(prev)
        assert np.array_equal(got, distances_from_prev_reference(prev, starts))

    @settings(max_examples=150, deadline=None)
    @given(
        lines=st.lists(st.integers(0, 40), max_size=400),
        offset=st.sampled_from([0, 2**40]),
    )
    def test_bitmap_finish_on_small_inputs(self, lines, offset):
        """Forced onto every sweep, including chunks narrower than 64."""
        arr = np.array(lines, dtype=np.int64) + offset
        with mock.patch.object(reuse, "_BITMAP_MIN", 0):
            got = stack_distances(arr)
        assert np.array_equal(got, stack_distances_reference(arr))

    @settings(max_examples=60, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 12)), max_size=300
        ),
        bitmap_min=st.sampled_from([0, 1 << 62]),
    )
    def test_grouped_streams_match_oracle(self, pairs, bitmap_min):
        regions = np.array([r for r, __ in pairs], dtype=np.int32)
        lines = np.array([x for __, x in pairs], dtype=np.int64)
        src, grouped = _group_by_region(regions, np.arange(len(pairs)))
        prev = _prev_occurrence(lines[src], grouped)
        starts = np.searchsorted(grouped, grouped, side="left")
        with mock.patch.object(reuse, "_BITMAP_MIN", bitmap_min):
            got = _distances_from_prev(prev)
        assert np.array_equal(got, distances_from_prev_reference(prev, starts))


def _chained(lines, regions):
    """Oracle: previous index of the same (region, line), or -1."""
    last, out = {}, []
    for i, key in enumerate(zip(regions, lines)):
        out.append(last.get(key, -1))
        last[key] = i
    return np.array(out, dtype=np.int64)


class TestGroupedChaining:
    @pytest.mark.parametrize("offset", [0, 2**61])
    def test_regions_touching_one_line_back_to_back(self, offset):
        """Adjacent equal lines from two regions must not be chained.

        Region 1 ends and region 2 starts on line 5, so the (line,
        position) sort puts positions 2 and 3 next to each other; only
        the region comparison keeps them apart.  An offset of 2^61 makes
        span x n overflow, so the stable fallback runs the same check.
        """
        lines = np.array([5, 7, 5, 5, 9, 5, 0], dtype=np.int64)
        lines[:6] += offset
        regions = np.array([1, 1, 1, 2, 2, 2, 3], dtype=np.int32)
        got = _prev_occurrence(lines, regions)
        assert got.tolist() == [-1, -1, 0, -1, -1, 3, -1]
        assert np.array_equal(got, _chained(lines.tolist(), regions.tolist()))
        assert _prev_occurrence(lines).tolist() == [-1, -1, 0, 2, -1, 3, -1]

    @settings(max_examples=80, deadline=None)
    @given(
        pairs=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 6)), max_size=200
        ),
        step=st.sampled_from([1, 2**60]),
    )
    def test_grouped_chain_matches_oracle(self, pairs, step):
        regions = np.array([r for r, __ in pairs], dtype=np.int32)
        lines = np.array([x for __, x in pairs], dtype=np.int64) * step
        src, grouped = _group_by_region(regions, np.arange(len(pairs)))
        assert np.array_equal(src, np.argsort(regions, kind="stable"))
        assert np.array_equal(grouped, regions[src])
        g_lines = lines[src]
        assert np.array_equal(
            _prev_occurrence(g_lines, grouped),
            _chained(g_lines.tolist(), grouped.tolist()),
        )

    def test_group_by_region_wide_ids_fall_back(self):
        """Region ids too wide to pack with positions keep a stable sort."""
        regions = np.array([2**62, 0, 2**62, 5, 0], dtype=np.int64)
        idx = np.array([0, 1, 2, 4], dtype=np.int64)
        src, grouped = _group_by_region(regions, idx)
        assert src.tolist() == [1, 4, 0, 2]
        assert grouped.tolist() == [0, 0, 2**62, 2**62]


class TestMissCurveFromDistances:
    def test_cold_misses_at_every_size(self):
        dist = np.array([COLD, COLD], dtype=np.int64)
        curve = miss_curve_from_distances(
            dist, chunk_bytes=128, n_chunks=4, instructions=1000.0
        )
        assert np.all(curve.misses == 2)

    def test_zero_distance_hits_beyond_size_zero(self):
        dist = np.array([0], dtype=np.int64)
        curve = miss_curve_from_distances(
            dist, chunk_bytes=128, n_chunks=4, instructions=1000.0
        )
        assert curve.misses[0] == 1  # size 0 always misses
        assert curve.misses[1] == 0

    def test_boundary_distance(self):
        # distance exactly lines_per_chunk misses at 1 chunk, hits at 2.
        dist = np.array([2], dtype=np.int64)  # 2 lines = 1 chunk of 128B
        curve = miss_curve_from_distances(
            dist, chunk_bytes=128, n_chunks=4, instructions=1000.0, line_bytes=64
        )
        assert curve.misses[1] == 1
        assert curve.misses[2] == 0

    def test_scale_applied(self):
        dist = np.array([COLD], dtype=np.int64)
        curve = miss_curve_from_distances(
            dist, chunk_bytes=128, n_chunks=2, instructions=1.0, scale=16.0
        )
        assert curve.misses[0] == 16
        assert curve.accesses == 16

    def test_monotone_non_increasing(self):
        rng = np.random.default_rng(0)
        dist = rng.integers(0, 100, size=500)
        curve = miss_curve_from_distances(
            dist, chunk_bytes=256, n_chunks=30, instructions=1000.0
        )
        assert np.all(np.diff(curve.misses) <= 0)


class TestProfiler:
    def make_trace(self, n=4000, ws_lines=100, seed=1):
        rng = np.random.default_rng(seed)
        return rng.integers(0, ws_lines, size=n).astype(np.int64)

    def test_lru_semantics_working_set_fits(self):
        """A trace over W distinct lines has ~zero misses beyond W lines."""
        lines = self.make_trace(ws_lines=64)
        prof = StackDistanceProfiler(chunk_bytes=64 * 64, n_chunks=4)
        curve = prof.profile_combined(lines, instructions=len(lines) * 10)[0]
        # At >= 1 chunk (64 lines) everything but cold misses hits.
        assert curve.misses[1] == pytest.approx(64, abs=1)
        assert curve.misses[0] == len(lines)

    def test_regions_profiled_independently(self):
        lines = np.array([0, 100, 0, 100, 0, 100], dtype=np.int64)
        regions = np.array([0, 1, 0, 1, 0, 1], dtype=np.int32)
        prof = StackDistanceProfiler(chunk_bytes=64, n_chunks=4)
        out = prof.profile(lines, regions, instructions=600.0)
        # Each region re-touches its single line: distance 0, so one cold
        # miss each at any non-zero size.
        assert out[0][0].misses[1] == 1
        assert out[1][0].misses[1] == 1

    def test_interval_split_preserves_access_totals(self):
        lines = self.make_trace()
        regions = np.zeros(len(lines), dtype=np.int32)
        prof = StackDistanceProfiler(chunk_bytes=4096, n_chunks=8)
        out = prof.profile(lines, regions, instructions=40000.0, n_intervals=4)
        total = sum(c.accesses for c in out[0])
        assert total == len(lines)

    def test_sampling_approximates_exact(self):
        lines = self.make_trace(n=20000, ws_lines=2000, seed=3)
        exact = StackDistanceProfiler(chunk_bytes=8192, n_chunks=32)
        sampled = StackDistanceProfiler(chunk_bytes=8192, n_chunks=32, sample_shift=2)
        c_exact = exact.profile_combined(lines, instructions=1e5)[0]
        c_sample = sampled.profile_combined(lines, instructions=1e5)[0]
        # Within 20% at mid sizes (set sampling is unbiased).
        mid = 8
        assert c_sample.misses[mid] == pytest.approx(c_exact.misses[mid], rel=0.25)

    def test_mismatched_lengths_rejected(self):
        prof = StackDistanceProfiler(chunk_bytes=64, n_chunks=2)
        with pytest.raises(ValueError):
            prof.profile(np.zeros(3), np.zeros(2), instructions=1.0)
