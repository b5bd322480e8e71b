"""Unit tests for WhirlTool (profiler, analyzer, runtime)."""

import numpy as np
import pytest
from oracles.whirltool import pool_distance

from repro.core.whirltool import (
    CallpointProfile,
    WhirlToolAnalyzer,
    WhirlToolProfiler,
    train_whirltool,
)
from repro.curves import MissCurve
from repro.workloads import build_workload

CHUNK = 64 * 1024


def curve(values, accesses=None, instr=1e6):
    values = np.asarray(values, dtype=float)
    return MissCurve(
        misses=values,
        chunk_bytes=CHUNK,
        accesses=float(values[0]) if accesses is None else accesses,
        instructions=instr,
    )


def friendly(n=40, scale=1000.0):
    """Cache-friendly pool: misses vanish quickly."""
    return curve(scale * np.power(0.7, np.arange(n + 1)))


def streaming(n=40, scale=1000.0):
    return curve([scale] * (n + 1), accesses=scale)


class TestPoolDistance:
    def test_interval_grid_mismatch(self):
        with pytest.raises(ValueError):
            pool_distance([friendly()], [friendly(), friendly()])

    def test_friendly_pair_closer_than_antagonists(self):
        """Fig 15: combining two cache-friendly pools is cheap; combining
        a friendly pool with a streaming one is expensive."""
        f1, f2 = [friendly()], [friendly()]
        s = [streaming()]
        assert pool_distance(f1, s) > pool_distance(f1, f2)

    def test_disjoint_phases_small_distance(self):
        """Pools active in different intervals barely interfere."""
        active = friendly()
        idle = MissCurve(
            misses=np.zeros(41), chunk_bytes=CHUNK, accesses=0, instructions=1e6
        )
        a = [active, idle]
        b = [idle, active]
        together = [active, active]
        assert pool_distance(a, b) < pool_distance(together, together) + 1e-9
        assert pool_distance(a, b) == 0.0

    def test_symmetric(self):
        a, b = [friendly()], [streaming()]
        assert pool_distance(a, b) == pytest.approx(pool_distance(b, a))


class TestAnalyzer:
    def make_profile(self):
        return CallpointProfile(
            curves={
                1: [friendly()],
                2: [friendly(scale=900.0)],
                3: [streaming()],
            },
            names={1: "flags", 2: "verts", 3: "edges"},
        )

    def test_merge_tree_complete(self):
        result = WhirlToolAnalyzer().cluster(self.make_profile())
        assert len(result.merges) == 2  # n-1 merges

    def test_friendly_pools_merge_first(self):
        result = WhirlToolAnalyzer().cluster(self.make_profile())
        first_a, first_b, __ = result.merges[0]
        assert set(first_a) | set(first_b) == {1, 2}

    def test_assignments_cut(self):
        result = WhirlToolAnalyzer().cluster(self.make_profile())
        two = result.assignments(2)
        assert two[1] == two[2]
        assert two[1] != two[3]
        three = result.assignments(3)
        assert len(set(three.values())) == 3

    def test_assignments_more_pools_than_callpoints(self):
        result = WhirlToolAnalyzer().cluster(self.make_profile())
        many = result.assignments(10)
        assert len(set(many.values())) == 3

    def test_assignments_invalid(self):
        result = WhirlToolAnalyzer().cluster(self.make_profile())
        with pytest.raises(ValueError):
            result.assignments(0)

    def test_dendrogram_text(self):
        result = WhirlToolAnalyzer().cluster(self.make_profile())
        text = result.dendrogram_text()
        assert "flags" in text and "edges" in text


class TestProfiler:
    def test_profiles_all_callpoints(self):
        w = build_workload("MIS", scale="train", seed=0)
        profile = WhirlToolProfiler(n_intervals=4).profile(w)
        assert set(profile.callpoints) == set(w.region_names)
        assert profile.n_intervals == 4

    def test_interval_count_respected(self):
        w = build_workload("lbm", scale="train", seed=0)
        profile = WhirlToolProfiler(n_intervals=6).profile(w)
        for series in profile.curves.values():
            assert len(series) == 6


class TestEndToEnd:
    def test_mis_clusters_like_manual(self):
        """WhirlTool should separate edges from the vertex state."""
        cls = train_whirltool("MIS", n_pools=2)
        w = build_workload("MIS", scale="ref", seed=0)
        mapping, specs = cls.classify(w)
        by_name = {}
        for rid, vc in mapping.items():
            by_name[w.region_names[rid]] = vc
        assert by_name["edges"] != by_name["flags"]

    def test_classifier_stable_across_scales(self):
        """Callpoint ids trained on 'train' must resolve on 'ref'."""
        cls = train_whirltool("cactus", n_pools=2)
        ref = build_workload("cactus", scale="ref", seed=0)
        mapping, __ = cls.classify(ref)
        # No region should fall back to the process VC: every callpoint
        # was seen during training.
        assert all(vc != 0 for vc in mapping.values())

    def test_unprofiled_callpoints_use_process_vc(self):
        cls = train_whirltool("MIS", n_pools=3)
        other = build_workload("dict", scale="train", seed=0)
        mapping, specs = cls.classify(other)
        assert set(mapping.values()) == {0}

    def test_invalid_pool_count(self):
        with pytest.raises(ValueError):
            train_whirltool("MIS", n_pools=0)
