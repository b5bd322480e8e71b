"""Integration tests for the simulation drivers and profiling cache."""

import numpy as np
import pytest

from repro.nuca import four_core_config
from repro.schemes import (
    JigsawScheme,
    ManualPoolClassifier,
    PerRegionClassifier,
    SNUCAScheme,
    SingleVCClassifier,
)
from repro.sim import simulate, simulate_mix, weighted_speedup
from repro.sim.profiling import profile_vcs
from repro.store import ArtifactStore
from repro.workloads import build_workload


@pytest.fixture(scope="module")
def cfg():
    return four_core_config()


@pytest.fixture(scope="module")
def mis():
    return build_workload("MIS", scale="train", seed=0)


class TestClassifiers:
    def test_single_vc(self, mis):
        mapping, specs = SingleVCClassifier().classify(mis)
        assert len(specs) == 1
        assert set(mapping.values()) == {0}

    def test_manual(self, mis):
        mapping, specs = ManualPoolClassifier().classify(mis)
        assert len(specs) == 3  # Table 2: vertices, edges, flags
        names = {s.name for s in specs}
        assert names == {"vertices", "edges", "flags"}

    def test_manual_requires_port(self):
        w = build_workload("dict", scale="train")
        with pytest.raises(ValueError):
            ManualPoolClassifier().classify(w)

    def test_per_region(self, mis):
        mapping, specs = PerRegionClassifier().classify(mis)
        assert len(specs) == len(mis.region_names)


class TestProfilingCache:
    def test_cache_roundtrip(self, mis, cfg, store_env):
        mapping, __ = SingleVCClassifier().classify(mis)
        kwargs = dict(
            chunk_bytes=cfg.chunk_bytes,
            n_chunks=cfg.model_chunks,
            n_intervals=4,
            sample_shift=3,
        )
        first = profile_vcs(mis.trace, mapping, **kwargs)
        assert len(list(ArtifactStore().artifacts("profiles"))) == 1
        second = profile_vcs(mis.trace, mapping, **kwargs)
        for vc in first:
            for a, b in zip(first[vc], second[vc]):
                assert np.allclose(a.misses, b.misses)
                assert a.accesses == b.accesses

    def test_different_mapping_different_entry(self, mis, cfg, store_env):
        kwargs = dict(
            chunk_bytes=cfg.chunk_bytes,
            n_chunks=cfg.model_chunks,
            n_intervals=2,
            sample_shift=3,
        )
        m1, __ = SingleVCClassifier().classify(mis)
        m2, __ = ManualPoolClassifier().classify(mis)
        profile_vcs(mis.trace, m1, **kwargs)
        profile_vcs(mis.trace, m2, **kwargs)
        assert len(list(ArtifactStore().artifacts("profiles"))) == 2


class TestSimulate:
    def test_result_conservation(self, mis, cfg):
        r = simulate(mis, cfg, JigsawScheme, use_cache=False)
        assert r.instructions == pytest.approx(mis.trace.instructions, rel=1e-6)
        total = r.hits + r.misses + r.bypasses
        assert total == pytest.approx(len(mis.trace), rel=0.01)

    def test_deterministic(self, mis, cfg):
        a = simulate(mis, cfg, JigsawScheme, use_cache=False)
        b = simulate(mis, cfg, JigsawScheme, use_cache=False)
        assert a.cycles == b.cycles
        assert a.energy.total == b.energy.total

    def test_paper_shape_mis(self, mis, cfg, store_env):
        """Whirlpool > Jigsaw > S-NUCA on mis (Fig 10)."""
        lru = simulate(mis, cfg, lambda c, v: SNUCAScheme(c, v, "lru"))
        jig = simulate(mis, cfg, JigsawScheme)
        whirl = simulate(mis, cfg, JigsawScheme, classifier=ManualPoolClassifier())
        assert whirl.cycles < jig.cycles < lru.cycles
        assert whirl.energy.total < jig.energy.total
        assert whirl.bypasses > 0  # edges bypassed

    def test_history_length_matches_intervals(self, mis, cfg, store_env):
        r = simulate(mis, cfg, JigsawScheme, n_intervals=10)
        assert len(r.history) == 10


class TestMix:
    def test_mix_runs_and_conserves(self, cfg):
        apps = [
            build_workload("bzip2", scale="train", seed=0),
            build_workload("mcf", scale="train", seed=1),
        ]
        res = simulate_mix(apps, cfg, JigsawScheme, n_intervals=6)
        assert len(res.per_app) == 2
        for app, r in zip(apps, res.per_app):
            total = r.hits + r.misses + r.bypasses
            assert total == pytest.approx(len(app.trace), rel=0.02)

    def test_too_many_programs_rejected(self, cfg):
        apps = [build_workload("bzip2", scale="train")] * 5
        with pytest.raises(ValueError):
            simulate_mix(apps, cfg, JigsawScheme)

    def test_weighted_speedup_identity(self, cfg):
        apps = [build_workload("bzip2", scale="train", seed=0)]
        res = simulate_mix(apps, cfg, JigsawScheme, n_intervals=6)
        ws = weighted_speedup(res, [res.per_app[0].ipc])
        assert ws == pytest.approx(1.0)

    def test_mismatched_alone_ipcs(self, cfg):
        apps = [build_workload("bzip2", scale="train", seed=0)]
        res = simulate_mix(apps, cfg, JigsawScheme, n_intervals=6)
        with pytest.raises(ValueError):
            weighted_speedup(res, [1.0, 2.0])

    def test_partitioning_beats_sharing_for_mix(self, cfg):
        """Jigsaw should beat S-NUCA on a thrashy mix (Fig 22 shape)."""
        apps = [
            build_workload("mcf", scale="train", seed=0),
            build_workload("cactus", scale="train", seed=1),
            build_workload("sphinx3", scale="train", seed=2),
            build_workload("omnet", scale="train", seed=3),
        ]
        jig = simulate_mix(apps, cfg, JigsawScheme, n_intervals=6)
        lru = simulate_mix(
            apps, cfg, lambda c, v: SNUCAScheme(c, v, "lru"), n_intervals=6
        )
        assert sum(jig.ipcs()) > sum(lru.ipcs())
