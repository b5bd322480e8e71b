"""Integration tests over the workload suite.

These check the *semantic* properties the paper's evaluation relies on:
pool working-set sizes, access splits, streaming vs. cacheable reuse, and
phase behaviour.
"""

import numpy as np
import pytest

from repro import obs
from repro.curves import StackDistanceProfiler
from repro.workloads import ALL_APPS, MANUAL_APPS, build_workload
from repro.workloads.registry import PBBS_APPS, SPEC_APPS

_MB = 1 << 20


def region_by_name(workload, name):
    for rid, rname in workload.region_names.items():
        if rname == name:
            return rid
    raise KeyError(name)


class TestRegistry:
    def test_suite_size_matches_paper(self):
        assert len(SPEC_APPS) == 15
        assert len(PBBS_APPS) == 16
        assert len(ALL_APPS) == 31

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError):
            build_workload("nbody")  # excluded by the paper (<5 L2 MPKI)

    def test_manual_apps_have_pool_info(self):
        for name in MANUAL_APPS:
            w = build_workload(name, scale="train", seed=0)
            assert w.manual_pools, name
            assert w.table2_loc, name

    def test_build_emits_one_tagged_span(self, monkeypatch):
        monkeypatch.delenv(obs.ENV_VAR, raising=False)
        sink = obs.MemorySink()
        obs.enable(sinks=[sink])
        try:
            w = build_workload("lbm", scale="train", seed=3)
        finally:
            obs.disable()
        ends = [
            e for e in sink.events
            if e["kind"] == "span-end" and e["name"] == "workload.build"
        ]
        assert len(ends) == 1
        assert ends[0]["fields"] == {
            "app": "lbm", "scale": "train", "seed": 3, "accesses": len(w.trace)
        }

    def test_determinism(self):
        a = build_workload("MIS", scale="train", seed=3)
        b = build_workload("MIS", scale="train", seed=3)
        assert np.array_equal(a.trace.lines, b.trace.lines)


class TestTable2PoolCounts:
    """Manual pool counts must match Table 2."""

    EXPECTED = {
        "BFS": 4,
        "delaunay": 3,
        "matching": 3,
        "refine": 3,
        "MIS": 3,
        "ST": 3,
        "MST": 3,
        "hull": 2,
        "bzip2": 4,
        "lbm": 2,
        "mcf": 2,
        "cactus": 2,
    }

    @pytest.mark.parametrize("name,pools", sorted(EXPECTED.items()))
    def test_pool_count(self, name, pools):
        w = build_workload(name, scale="train", seed=0)
        assert len(set(w.manual_pools.values())) == pools


class TestDtStructure:
    """dt must reproduce Fig 2: 6 MB working set, 0.5/1.5/4 MB pools."""

    @pytest.fixture(scope="class")
    def dt(self):
        return build_workload("delaunay", scale="ref", seed=0)

    def test_pool_footprints(self, dt):
        fp = dt.trace.region_footprint_bytes()
        by_name = {dt.region_names[r]: b for r, b in fp.items()}
        assert by_name["points"] == pytest.approx(0.5 * _MB, rel=0.2)
        assert by_name["vertices"] == pytest.approx(1.5 * _MB, rel=0.2)
        assert by_name["triangles"] == pytest.approx(4.0 * _MB, rel=0.2)

    def test_access_split_roughly_even(self, dt):
        apki = dt.trace.region_apki()
        shares = np.array(list(apki.values()))
        shares = shares / shares.sum()
        assert shares.min() > 0.2  # paper: split roughly evenly

    def test_total_working_set_fits_cache(self, dt):
        total = sum(dt.trace.region_footprint_bytes().values())
        assert 5 * _MB < total < 8 * _MB  # ~6 MB, fits in 12.5 MB


class TestMisStructure:
    """mis: vertices cache well, edges stream (Fig 9)."""

    @pytest.fixture(scope="class")
    def mis_curves(self):
        w = build_workload("MIS", scale="ref", seed=0)
        prof = StackDistanceProfiler(
            chunk_bytes=256 * 1024, n_chunks=50, sample_shift=3
        )
        curves = prof.profile(
            w.trace.lines, w.trace.regions, w.trace.instructions
        )
        by_name = {w.region_names[r]: cs[0] for r, cs in curves.items()}
        return by_name

    def test_edges_streaming(self, mis_curves):
        edges = mis_curves["edges"]
        # Minimal miss reduction even given the whole LLC.
        assert edges.misses_at(12 * _MB) > 0.85 * edges.misses_at(0)

    def test_vertex_state_cacheable(self, mis_curves):
        # The reuse lives in the per-vertex flags (the offsets array is
        # read once per vertex, like the edge array).
        flags = mis_curves["flags"]
        assert flags.misses_at(6 * _MB) < 0.4 * flags.misses_at(0)


class TestLbmPhases:
    """lbm: pools identical on average, different per phase (Fig 6)."""

    def test_alternating_intensity(self):
        w = build_workload("lbm", scale="ref", seed=0)
        n = len(w.trace)
        n_phases = 10
        bounds = np.linspace(0, n, n_phases + 1).astype(int)
        ids = sorted(w.region_names)
        apki_series = {rid: [] for rid in ids}
        for t in range(n_phases):
            seg = w.trace.regions[bounds[t] : bounds[t + 1]]
            for rid in ids:
                apki_series[rid].append(np.count_nonzero(seg == rid))
        g1, g2 = [np.array(apki_series[r], dtype=float) for r in ids]
        # Per-phase roles alternate...
        flips = np.sign(g1 - g2)
        assert np.count_nonzero(flips[:-1] != flips[1:]) >= 5
        # ...but on average the pools look the same.
        assert g1.sum() == pytest.approx(g2.sum(), rel=0.15)


class TestCactusStructure:
    def test_one_pool_reuses_one_streams(self):
        w = build_workload("cactus", scale="ref", seed=0)
        prof = StackDistanceProfiler(
            chunk_bytes=256 * 1024, n_chunks=50, sample_shift=2
        )
        curves = prof.profile(w.trace.lines, w.trace.regions, w.trace.instructions)
        by_name = {w.region_names[r]: cs[0] for r, cs in curves.items()}
        pugh = by_name["pugh"]
        grid = by_name["grid"]
        assert pugh.misses_at(4 * _MB) < 0.35 * pugh.misses_at(0)
        assert grid.misses_at(12 * _MB) > 0.8 * grid.misses_at(0)


class TestScales:
    @pytest.mark.parametrize("name", ["leslie", "omnet", "xalanc", "setCover"])
    def test_train_differs_from_ref(self, name):
        """Fig 18's sensitive apps change shape across input scales."""
        train = build_workload(name, scale="train", seed=0)
        ref = build_workload(name, scale="ref", seed=0)
        fp_train = sum(train.trace.region_footprint_bytes().values())
        fp_ref = sum(ref.trace.region_footprint_bytes().values())
        assert fp_ref > 1.5 * fp_train

    def test_train_smaller_everywhere(self):
        for name in ["mcf", "sort", "MIS"]:
            train = build_workload(name, scale="train", seed=0)
            ref = build_workload(name, scale="ref", seed=0)
            assert len(train.trace) < len(ref.trace)
