"""Property-based tests over cross-module invariants (hypothesis)."""

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
from repro.curves.combine import shared_cache_misses
from repro.nuca import MeshGeometry
from repro.parallel.task import ParallelWorkload, Task
from repro.parallel.scheduler import schedule_tasks


def curve_from(values, instr=1e6):
    values = np.asarray(values, dtype=float)
    return MissCurve(
        misses=values,
        chunk_bytes=64 * 1024,
        accesses=float(values[0]),
        instructions=instr,
    )


curve_values = st.lists(
    st.floats(0, 10_000, allow_nan=False), min_size=3, max_size=30
)


class TestCurveInvariants:
    @settings(max_examples=40, deadline=None)
    @given(curve_values, curve_values)
    def test_partition_no_worse_than_static_split(self, va, vb):
        """Optimal partitioning beats any fixed 50/50 split of capacity."""
        n = max(len(va), len(vb)) - 1
        a = curve_from(va).extended(n)
        b = curve_from(vb).extended(n)
        total = n * 64 * 1024
        __, best = partition_capacity([a, b], total)
        half = total / 2
        fixed = (
            a.hull_curve().misses_at(half) / a.instructions
            + b.hull_curve().misses_at(half) / b.instructions
        )
        assert best <= fixed + 1e-9 * max(1.0, fixed)

    @settings(max_examples=40, deadline=None)
    @given(curve_values, curve_values, st.integers(0, 20))
    def test_shared_between_solo_and_sum(self, va, vb, size_chunks):
        """Sharing a cache: each stream misses at least as much as alone
        with the whole cache, at most as much as with no cache."""
        n = max(len(va), len(vb)) - 1
        a = curve_from(va).extended(n)
        b = curve_from(vb).extended(n)
        size = min(size_chunks, n) * 64 * 1024
        shared = shared_cache_misses([a, b], size)
        for s, c in zip(shared, (a, b)):
            assert s >= c.misses_at(c.max_bytes) - 1e-6
            assert s <= c.misses[0] + 1e-6

    @settings(max_examples=40, deadline=None)
    @given(curve_values, curve_values)
    def test_combined_vs_partitioned_distance_nonnegative(self, va, vb):
        """WhirlTool's distance metric is non-negative by construction."""
        n = max(len(va), len(vb)) - 1
        a = curve_from(va).extended(n)
        b = curve_from(vb).extended(n)
        comb = combine_miss_curves(a, b)
        part = partitioned_miss_curve(a, b)
        area = np.sum(comb.misses - part.misses)
        assert area >= -1e-6 * max(1.0, comb.misses[0])


def _distinct_capacity(dim, limit=16):
    """Largest n <= limit such that 1..n cores all get distinct entry tiles."""
    n = 1
    while n < limit and len(set(MeshGeometry._place_cores(dim, n + 1))) == n + 1:
        n += 1
    return n


class TestGeometryInvariants:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 9), st.data(), st.integers(1, 4))
    def test_reach_bounded_by_mesh_diameter(self, dim, data, n_mcus):
        n_cores = data.draw(st.integers(1, _distinct_capacity(dim)), label="n_cores")
        geo = MeshGeometry(dim=dim, n_cores=n_cores, n_mcus=n_mcus)
        diameter = 2 * (dim - 1)
        for core in range(min(n_cores, 4)):
            assert 0 <= geo.reach_avg_hops(core, geo.total_bytes) <= diameter
            assert geo.mem_hops(core) <= diameter

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 9), st.floats(0, 1))
    def test_reach_monotone(self, dim, frac):
        geo = MeshGeometry(dim=dim, n_cores=1)
        s1 = frac * geo.total_bytes
        s2 = min(s1 + geo.bank_bytes, geo.total_bytes)
        assert geo.reach_avg_hops(0, s2) >= geo.reach_avg_hops(0, s1) - 1e-9

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 9), st.floats(1e-3, 1))
    def test_central_placement_capacity(self, dim, frac):
        geo = MeshGeometry(dim=dim, n_cores=1)
        size = frac * geo.total_bytes
        p = geo.central_placement(size)
        assert p.total_bytes == pytest.approx(size)


class TestSchedulerInvariants:
    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 15), st.integers(1, 50)),
                 min_size=1, max_size=40),
        st.sampled_from(["ws", "paws"]),
    )
    def test_every_task_runs_exactly_once(self, specs, policy):
        geo = MeshGeometry(dim=9, n_cores=16)
        tasks = [
            Task(home=h, streams={h: np.zeros(c)}) for h, c in specs
        ]
        w = ParallelWorkload(
            name="prop",
            tasks=tasks,
            region_names={p: str(p) for p in range(16)},
            partition_of_region={p: p for p in range(16)},
            n_partitions=16,
        )
        s = schedule_tasks(w, 16, policy=policy, geometry=geo, seed=0)
        assert all(0 <= c < 16 for c in s.assignment)
        assert s.core_work.sum() == sum(c for __, c in specs)
