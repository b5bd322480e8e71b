"""Tests for result accounting, caches, and bookkeeping edge cases."""

import os

import numpy as np
import pytest

from repro.curves import MissCurve
from repro.nuca import four_core_config
from repro.nuca.energy import EnergyBreakdown
from repro.schemes import JigsawScheme, SNUCAScheme, VCSpec
from repro.schemes.base import IntervalStats, SchemeResult, VCAllocation
from repro.sim.profiling import clear_cache, profile_vcs
from repro.store import ArtifactStore
from repro.workloads import build_workload

CHUNK = 64 * 1024


def curve_from(values, accesses=None, instr=1e6):
    values = np.asarray(values, dtype=float)
    return MissCurve(
        misses=values,
        chunk_bytes=CHUNK,
        accesses=float(values[0]) if accesses is None else accesses,
        instructions=instr,
    )


class TestIntervalStats:
    def test_accesses_property(self):
        s = IntervalStats(instructions=1.0, hits=10, misses=5, bypasses=3)
        assert s.accesses == 18


class TestSchemeResult:
    def test_add_accumulates(self):
        r = SchemeResult(name="x", base_cpi=0.5)
        r.add(
            IntervalStats(
                instructions=1000.0,
                hits=10,
                misses=2,
                stall_cycles=300.0,
                energy=EnergyBreakdown(1, 2, 3),
            )
        )
        r.add(
            IntervalStats(
                instructions=1000.0,
                hits=5,
                misses=1,
                stall_cycles=200.0,
                energy=EnergyBreakdown(1, 1, 1),
            )
        )
        assert r.instructions == 2000.0
        assert r.cycles == 2000.0 * 0.5 + 500.0
        assert r.energy.total == 9.0
        assert len(r.history) == 2

    def test_ipc_and_stall_cpi(self):
        r = SchemeResult(name="x", base_cpi=1.0)
        r.add(IntervalStats(instructions=1000.0, stall_cycles=1000.0))
        assert r.ipc == pytest.approx(0.5)
        assert r.data_stall_cpi == pytest.approx(1.0)

    def test_apki_breakdown(self):
        r = SchemeResult(name="x", base_cpi=0.5)
        r.add(
            IntervalStats(instructions=1000.0, hits=8, misses=1, bypasses=1)
        )
        b = r.apki_breakdown()
        assert b == {"hits": 8.0, "misses": 1.0, "bypasses": 1.0}


class TestAccountingEdges:
    def test_missing_allocation_treated_as_empty(self):
        """A VC with monitor data but no allocation gets size 0."""
        cfg = four_core_config()
        s = JigsawScheme(cfg, [VCSpec(0, "p"), VCSpec(1, "q")])
        c = curve_from([100.0, 0.0], accesses=100)
        stats = s.account(
            {0: VCAllocation(size_bytes=CHUNK, avg_hops=1.0)},
            {0: c, 1: c},
            instructions=1e6,
        )
        # VC 1 is unallocated but still accounted (all its accesses).
        assert stats.vc_sizes[1] == 0.0
        assert stats.accesses == 200.0

    def test_misses_clamped_to_accesses(self):
        cfg = four_core_config()
        s = SNUCAScheme(cfg, [VCSpec(0, "p")], "lru")
        # Pathological curve: more misses than accesses.
        c = curve_from([500.0, 500.0], accesses=100)
        stats = s.step({0: c}, {0: c}, 1e6)
        assert stats.misses <= 100.0 + 1e-9

    def test_empty_interval(self):
        cfg = four_core_config()
        s = SNUCAScheme(cfg, [VCSpec(0, "p")], "lru")
        zero = MissCurve.zero(4, CHUNK, instructions=1e6)
        stats = s.step({0: zero}, {0: zero}, 1e6)
        assert stats.accesses == 0
        assert stats.energy.total == 0


class TestProfilingCacheManagement:
    def test_clear_cache(self, store_env):
        w = build_workload("hull", scale="train", seed=0)
        mapping = {rid: 0 for rid in w.region_names}
        profile_vcs(
            w.trace, mapping, chunk_bytes=CHUNK, n_chunks=32,
            n_intervals=2, sample_shift=3,
        )
        assert len(list(ArtifactStore().artifacts("profiles"))) == 1
        assert clear_cache() == 1
        assert len(list(ArtifactStore().artifacts("profiles"))) == 0
        assert clear_cache() == 0  # idempotent

    def test_corrupt_cache_entry_recomputed(self, store_env):
        w = build_workload("hull", scale="train", seed=0)
        mapping = {rid: 0 for rid in w.region_names}
        kwargs = dict(
            chunk_bytes=CHUNK, n_chunks=32, n_intervals=2, sample_shift=3
        )
        first = profile_vcs(w.trace, mapping, **kwargs)
        ((__, __, entry),) = ArtifactStore().artifacts("profiles")
        # Corrupt the entry by rename, as store writes land: `first`
        # maps the payload, so writing the file in place would change
        # it too.
        garbage = entry.with_name("garbage")
        garbage.write_bytes(b"garbage")
        os.replace(garbage, entry)
        second = profile_vcs(w.trace, mapping, **kwargs)
        for vc in first:
            for a, b in zip(first[vc], second[vc]):
                assert np.allclose(a.misses, b.misses)


class TestMixEnergyAttribution:
    def test_per_app_energy_sums_to_joint_total(self, store_env):
        from repro.sim import simulate_mix

        cfg = four_core_config()
        apps = [
            build_workload("hull", scale="train", seed=0),
            build_workload("bzip2", scale="train", seed=1),
        ]
        res = simulate_mix(apps, cfg, JigsawScheme, n_intervals=4)
        # The mix's energy is exactly the sum of per-app attributions.
        total = res.energy.total
        assert total > 0
        per_app = sum(r.energy.total for r in res.per_app)
        assert per_app == pytest.approx(total, rel=1e-9)
