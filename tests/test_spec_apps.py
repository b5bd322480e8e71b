"""Per-app structure tests for the 15 SPEC CPU2006 models.

Each test pins the app-specific property its model exists to reproduce
(pool structure, working-set ratios, phase behaviour, streaming vs
reuse) so regressions in the generators can't silently invalidate the
evaluation.
"""

import numpy as np
import pytest

from repro.curves import StackDistanceProfiler
from repro.workloads import build_workload
from repro.workloads.registry import SPEC_APPS
from repro.workloads.spec.synth import RegionSpec

_MB = 1 << 20


@pytest.fixture(scope="module")
def curves_of():
    cache = {}

    def _get(name, scale="ref"):
        if (name, scale) not in cache:
            w = build_workload(name, scale=scale, seed=0)
            prof = StackDistanceProfiler(
                chunk_bytes=256 * 1024, n_chunks=100, sample_shift=3
            )
            out = prof.profile(
                w.trace.lines, w.trace.regions, w.trace.instructions
            )
            cache[(name, scale)] = (
                w,
                {w.region_names[r]: cs[0] for r, cs in out.items()},
            )
        return cache[(name, scale)]

    return _get


def is_streaming(curve, at_bytes=12 * _MB, threshold=0.8):
    return curve.misses_at(at_bytes) > threshold * curve.misses_at(0)


def is_cacheable(curve, at_bytes=8 * _MB, threshold=0.5):
    return curve.misses_at(at_bytes) < threshold * curve.misses_at(0)


class TestEveryApp:
    @pytest.mark.parametrize("name", SPEC_APPS)
    def test_builds_and_has_positive_apki(self, name):
        w = build_workload(name, scale="train", seed=0)
        assert len(w.trace) > 10_000
        assert 5.0 < w.trace.apki < 200.0  # paper: >5 L2 MPKI apps


class TestRegionSpec:
    @pytest.mark.parametrize("alpha", [1.0, 0.5, -1.0, float("nan")])
    def test_zipf_alpha_must_exceed_one(self, alpha):
        # Before the build, and naming the region.
        with pytest.raises(ValueError, match="region hot: zipf_alpha must be > 1"):
            RegionSpec("hot", 4096, "zipf", zipf_alpha=alpha)

    def test_other_patterns_ignore_zipf_alpha(self):
        assert RegionSpec("flat", 4096, "uniform", zipf_alpha=1.0).zipf_alpha == 1.0


class TestBzip2(object):
    def test_four_pools_small_ws(self, curves_of):
        w, curves = curves_of("bzip2")
        assert set(curves) == {"arr1", "arr2", "ftab", "tt"}
        # Total WS ~4 MB: small enough for IdealSPD's private region to
        # do well (Sec 4.5).
        total = sum(w.trace.region_footprint_bytes().values())
        assert total < 6 * _MB

    def test_ftab_hot(self, curves_of):
        __, curves = curves_of("bzip2")
        # The frequency table caches in very little space.
        ftab = curves["ftab"]
        assert ftab.misses_at(1 * _MB) < 0.3 * ftab.misses_at(0)


class TestMcf:
    def test_nodes_chase_arcs_stream(self, curves_of):
        __, curves = curves_of("mcf")
        assert is_streaming(curves["arcs"])
        # Nodes have whole-region reuse: cacheable once ~3 MB fit.
        assert curves["nodes"].misses_at(4 * _MB) < 0.5 * curves[
            "nodes"
        ].misses_at(1 * _MB)


class TestLbm:
    def test_two_symmetric_grids(self, curves_of):
        w, curves = curves_of("lbm")
        assert set(curves) == {"grid1", "grid2"}
        fp = w.trace.region_footprint_bytes()
        sizes = sorted(fp.values())
        assert sizes[1] < 1.3 * sizes[0]  # symmetric working sets


class TestCactus:
    def test_grid_exceeds_llc(self, curves_of):
        w, __ = curves_of("cactus")
        fp = {
            w.region_names[r]: b
            for r, b in w.trace.region_footprint_bytes().items()
        }
        assert fp["grid"] > 12.5 * _MB  # streams past the whole LLC


class TestLibquantum:
    def test_single_streaming_region(self, curves_of):
        w, curves = curves_of("libqntm")
        assert len(curves) == 1
        (curve,) = curves.values()
        # The register wraps repeatedly: reuse only at full-WS distance.
        assert curve.misses_at(2 * _MB) > 0.9 * curve.misses_at(0)


class TestGems:
    def test_alternating_field_emphasis(self):
        w = build_workload("gems", scale="ref", seed=0)
        ids = {name: rid for rid, name in w.region_names.items()}
        n = len(w.trace)
        halves = []
        for lo, hi in [(0, n // 10), (n // 10, 2 * n // 10)]:
            seg = w.trace.regions[lo:hi]
            e = np.count_nonzero(seg == ids["e_field"])
            h = np.count_nonzero(seg == ids["h_field"])
            halves.append(e / max(h, 1))
        # E-heavy phase then H-heavy phase.
        assert halves[0] > 1.0 > halves[1]


class TestSphinx:
    def test_acoustic_model_dominates(self, curves_of):
        w, curves = curves_of("sphinx3")
        apki = w.trace.region_apki()
        by_name = {w.region_names[r]: v for r, v in apki.items()}
        assert by_name["acoustic_model"] == max(by_name.values())


class TestTrainingSensitivity:
    @pytest.mark.parametrize("name", ["leslie", "omnet", "xalanc"])
    def test_pattern_shape_changes_across_scales(self, name, curves_of):
        """Fig 18's apps change *shape*, not just size, across inputs."""
        __, train = curves_of(name, "train")
        __, ref = curves_of(name, "ref")
        # At least one region flips between streaming-ish and cacheable.
        flips = 0
        for rname in train:
            t = train[rname]
            r = ref[rname]
            t_frac = t.misses_at(2 * _MB) / max(t.misses_at(0), 1e-9)
            r_frac = r.misses_at(2 * _MB) / max(r.misses_at(0), 1e-9)
            if abs(t_frac - r_frac) > 0.3:
                flips += 1
        assert flips >= 1, name

    @pytest.mark.parametrize("name", ["mcf", "sphinx3", "milc"])
    def test_stable_apps_keep_shape(self, name, curves_of):
        __, train = curves_of(name, "train")
        __, ref = curves_of(name, "ref")
        for rname in train:
            t = train[rname]
            r = ref[rname]
            # Compare at proportional sizes (train is a scaled-down WS).
            t_frac = t.misses_at(1 * _MB) / max(t.misses_at(0), 1e-9)
            r_frac = r.misses_at(3 * _MB) / max(r.misses_at(0), 1e-9)
            assert abs(t_frac - r_frac) < 0.55, rname


class TestStreamers:
    @pytest.mark.parametrize("name,region", [
        ("milc", "links"),
        ("zeusmp", "field_grids"),
        ("soplex", "matrix"),
        ("gems", "e_field"),
        ("leslie", "grids_u"),
    ])
    def test_declared_streams_stream(self, name, region, curves_of):
        __, curves = curves_of(name)
        assert is_streaming(curves[region], at_bytes=6 * _MB, threshold=0.6), (
            name,
            region,
        )

    @pytest.mark.parametrize("name,region", [
        ("gcc", "symtab"),
        ("astar", "open_list"),
        ("omnet", "event_heap"),
        ("soplex", "basis"),
    ])
    def test_declared_hot_pools_cache(self, name, region, curves_of):
        __, curves = curves_of(name)
        c = curves[region]
        assert c.misses_at(2 * _MB) < 0.45 * c.misses_at(0), (name, region)
