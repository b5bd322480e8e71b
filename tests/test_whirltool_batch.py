"""Differential tests: batched clustering engine vs the serial oracle.

``WhirlToolAnalyzer.cluster`` (condensed-matrix, batched distance
evaluation) must reproduce ``cluster_reference`` (in
``tests/oracles/whirltool.py``) *exactly* on arbitrary multi-interval
profiles: same merge order, same recorded cluster tuple order, bit-equal
distances, same tie-breaks.  Plus the degenerate profiles the engine
handles itself, and the index-based ``assignments`` replay regressions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.whirltool import cluster_reference

from repro.core.whirltool import (
    CallpointProfile,
    ClusteringResult,
    WhirlToolAnalyzer,
)
from repro.curves import MissCurve

CHUNK = 64 * 1024


def profile_strategy():
    """Random multi-interval profiles with varied shapes and idle phases."""

    @st.composite
    def build(draw):
        n_callpoints = draw(st.integers(2, 6))
        n_intervals = draw(st.integers(1, 4))
        n_chunks = draw(st.integers(2, 12))
        rng = np.random.default_rng(draw(st.integers(0, 2**31)))
        curves = {}
        for cp in range(n_callpoints):
            series = []
            for __ in range(n_intervals):
                if rng.random() < 0.2:  # idle phase
                    series.append(
                        MissCurve(
                            np.zeros(n_chunks + 1), CHUNK, 0.0, 1e6
                        )
                    )
                    continue
                vals = rng.uniform(0, 1000, n_chunks + 1)
                series.append(
                    MissCurve(
                        misses=vals,
                        chunk_bytes=CHUNK,
                        accesses=float(np.max(vals)),
                        instructions=float(rng.uniform(1e3, 1e7)),
                    )
                )
            curves[cp] = series
        return CallpointProfile(
            curves=curves,
            names={cp: f"r{cp}" for cp in curves},
            n_intervals=n_intervals,
        )

    return build()


def assert_clusterings_identical(got: ClusteringResult, want: ClusteringResult):
    assert got.callpoints == want.callpoints
    assert got.names == want.names
    assert len(got.merges) == len(want.merges)
    for (ga, gb, gd), (wa, wb, wd) in zip(got.merges, want.merges):
        assert ga == wa  # frozenset equality AND recorded tuple order
        assert gb == wb
        assert gd == wd  # exact float equality, no tolerance


class TestClusterVsReference:
    @settings(max_examples=40, deadline=None)
    @given(profile_strategy())
    def test_bit_identical_merge_trees(self, profile):
        analyzer = WhirlToolAnalyzer()
        got = analyzer.cluster(profile)
        want = cluster_reference(profile)
        assert_clusterings_identical(got, want)
        for k in (1, 2, 3, len(profile.curves)):
            assert got.assignments(k) == want.assignments(k)

    def test_exact_distance_ties_break_on_min_callpoint(self):
        """Identical curves force exact distance ties everywhere."""
        vals = np.concatenate([np.full(4, 500.0), np.full(5, 100.0)])

        def twin():
            return MissCurve(vals.copy(), CHUNK, 500.0, 1e6)

        profile = CallpointProfile(
            curves={cp: [twin()] for cp in (3, 7, 11, 19)},
            names={},
            n_intervals=1,
        )
        analyzer = WhirlToolAnalyzer()
        got = analyzer.cluster(profile)
        want = cluster_reference(profile)
        assert_clusterings_identical(got, want)
        # The first merge must pick the lexicographically smallest
        # (min_a, min_b) pair among the all-tied distances.
        a, b, __ = got.merges[0]
        assert (min(a), min(b)) == (3, 7)

    def test_single_callpoint_profile(self):
        profile = CallpointProfile(
            curves={5: [MissCurve(np.array([10.0, 0.0]), CHUNK, 10.0, 1e6)]},
            names={5: "only"},
            n_intervals=1,
        )
        result = WhirlToolAnalyzer().cluster(profile)
        assert result.merges == []
        assert result.callpoints == [5]
        assert result.names == {5: "only"}
        assert_clusterings_identical(result, cluster_reference(profile))
        empty = WhirlToolAnalyzer().cluster(CallpointProfile(curves={}))
        assert empty.merges == [] and empty.callpoints == []

    def test_interval_grid_mismatch_raises(self):
        c = MissCurve(np.array([10.0, 0.0]), CHUNK, 10.0, 1e6)
        profile = CallpointProfile(
            curves={1: [c], 2: [c, c]}, names={}, n_intervals=2
        )
        with pytest.raises(ValueError):
            WhirlToolAnalyzer().cluster(profile)

    def test_no_intervals_raises(self):
        profile = CallpointProfile(curves={1: [], 2: []}, n_intervals=0)
        with pytest.raises(ValueError, match="no intervals"):
            WhirlToolAnalyzer().cluster(profile)

    def test_ragged_size_grids_raise(self):
        """Every profiler builds one grid; curves on two are rejected."""
        long = MissCurve(
            100 * np.power(0.5, np.arange(8)), CHUNK, 100.0, 1e6
        )
        short = MissCurve(np.array([10.0, 2.0, 0.0]), CHUNK, 10.0, 1e6)
        coarse = MissCurve(long.misses, 2 * CHUNK, 100.0, 1e6)
        for odd in (short, coarse):  # n_chunks, then chunk_bytes
            profile = CallpointProfile(
                curves={1: [long, long], 2: [long, odd], 3: [long, long]},
                names={},
                n_intervals=2,
            )
            with pytest.raises(ValueError, match="size grid"):
                WhirlToolAnalyzer().cluster(profile)


class TestAssignmentsReplay:
    def test_duplicate_membership_cut(self):
        """A merge retires exactly one slot per operand, not every
        set-equal cluster (the old list-comparison replay dropped all of
        them, collapsing the cut below the requested pool count)."""
        result = ClusteringResult(
            callpoints=[1, 1, 2, 3],
            merges=[
                (frozenset({1}), frozenset({2}), 0.1),
                (frozenset({1, 2}), frozenset({1}), 0.2),
                (frozenset({1, 2}), frozenset({3}), 0.3),
            ],
        )
        # Cutting at 3 applies only the first merge: the duplicate {1}
        # leaf must survive it, leaving {1}, {1,2}, {3} live.
        assert result.assignments(3) == {1: 1, 2: 1, 3: 2}
        # Cutting at 2 consumes the duplicate leaf via the second merge.
        assert result.assignments(2) == {1: 0, 2: 0, 3: 1}

    def test_duplicate_self_merge(self):
        result = ClusteringResult(
            callpoints=[4, 4],
            merges=[(frozenset({4}), frozenset({4}), 0.0)],
        )
        assert result.assignments(1) == {4: 0}

    def test_invalid_pool_count(self):
        result = ClusteringResult(callpoints=[1, 2])
        with pytest.raises(ValueError):
            result.assignments(0)

    def test_dendrogram_label_order_is_name_sorted(self):
        """Labels sort rendered names, independent of names-dict order."""
        merges = [(frozenset({2, 9}), frozenset({5}), 1.25)]
        forward = ClusteringResult(
            callpoints=[2, 5, 9],
            merges=merges,
            names={2: "zeta", 9: "alpha", 5: "mid"},
        )
        backward = ClusteringResult(
            callpoints=[2, 5, 9],
            merges=merges,
            names={5: "mid", 9: "alpha", 2: "zeta"},
        )
        assert forward.dendrogram_text() == backward.dendrogram_text()
        assert "alpha+zeta" in forward.dendrogram_text()
