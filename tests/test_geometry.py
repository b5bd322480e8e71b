"""Unit tests for mesh geometry and reach curves."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nuca import MeshGeometry, Placement, four_core_config, sixteen_core_config
from repro.sim.sweep import vary_config

#: Both shipped meshes, plus one whose bank size no grid chunk divides.
REACH_MESHES = [
    four_core_config().geometry,
    sixteen_core_config().geometry,
    MeshGeometry(dim=5, n_cores=4, bank_bytes=1000),
]


def centered_core_entries(dim, n_cores):
    """Entry tiles with offsets centered on the whole side, corners included."""
    per_side = (n_cores + 3) // 4
    if per_side == 1:
        offsets = [dim // 2]
    else:
        step = dim // per_side
        start = (dim - step * (per_side - 1) - 1) // 2
        offsets = [start + i * step for i in range(per_side)]
    sides = [
        [(o, 0) for o in offsets],
        [(0, o) for o in offsets],
        [(o, dim - 1) for o in offsets],
        [(dim - 1, o) for o in offsets],
    ]
    return [sides[i % 4][i // 4] for i in range(n_cores)]


def central_reach_fn(geo, accessing_cores=None):
    """Scalar central reach, one size per call: the oracle for ``central_reach_curve``."""
    cores = accessing_cores or list(range(geo.n_cores))
    order = np.argsort(geo.distances_from_tile(geo.center_tile), kind="stable")
    core_dist = np.mean([geo.distances(c) for c in cores], axis=0)
    sorted_core_dist = core_dist[order]
    cum = np.cumsum(sorted_core_dist)

    def reach(size_bytes):
        if size_bytes <= 0:
            return float(sorted_core_dist[0])
        n_full = min(int(size_bytes // geo.bank_bytes), geo.n_banks)
        used = n_full * geo.bank_bytes
        frac = min(size_bytes, geo.total_bytes) - used
        total = (cum[n_full - 1] * geo.bank_bytes) if n_full > 0 else 0.0
        if frac > 0 and n_full < geo.n_banks:
            total += sorted_core_dist[n_full] * frac
        return float(total / min(size_bytes, geo.total_bytes))

    return reach


@st.composite
def reach_cases(draw):
    """A mesh and a size grid mixing every branch of the reach formula.

    Zero and negative sizes, fractions of a bank, exact bank multiples,
    sizes past ``total_bytes``, and Python ints as well as floats.
    """
    geo = draw(st.sampled_from(REACH_MESHES))
    bank, total = geo.bank_bytes, geo.total_bytes
    size = st.one_of(
        st.sampled_from([0, 0.0, -0.0, 1, bank - 1, bank, total, 3.5 * total]),
        st.floats(-2.0 * bank, 0.0),
        st.integers(0, 2 * geo.n_banks).map(lambda k: k * bank),
        st.tuples(
            st.integers(0, geo.n_banks), st.floats(0, 1, exclude_min=True, exclude_max=True)
        ).map(lambda t: (t[0] + t[1]) * bank),
        st.floats(0, 4.0 * total),
        st.integers(-bank, 2 * total),
    )
    return geo, draw(st.lists(size, min_size=1, max_size=80))


class TestMeshBasics:
    def test_bank_count(self):
        assert MeshGeometry(dim=5, n_cores=4).n_banks == 25
        assert MeshGeometry(dim=9, n_cores=16).n_banks == 81

    def test_total_bytes(self):
        geo = MeshGeometry(dim=5, n_cores=4, bank_bytes=512 * 1024)
        assert geo.total_bytes == 25 * 512 * 1024

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            MeshGeometry(dim=0, n_cores=1)

    def test_invalid_mcus(self):
        with pytest.raises(ValueError):
            MeshGeometry(dim=5, n_cores=4, n_mcus=5)

    def test_four_cores_on_distinct_sides(self):
        geo = MeshGeometry(dim=5, n_cores=4)
        entries = geo.core_entries
        assert len(set(entries)) == 4
        # First core on the west edge (col 0), mid-row — where dt runs.
        assert entries[0] == (2, 0)

    @pytest.mark.parametrize("n_cores", [0, -3])
    def test_invalid_core_count(self, n_cores):
        with pytest.raises(ValueError, match="n_cores"):
            MeshGeometry(dim=5, n_cores=n_cores)

    @pytest.mark.parametrize(
        "dim, n_cores", [(5, 16), (3, 8), (5, 24), (2, 4), (1, 2)]
    )
    def test_shared_entry_tiles_rejected(self, dim, n_cores):
        """Sides that need as many entry tiles as the mesh is wide collide."""
        with pytest.raises(ValueError, match="distinct"):
            MeshGeometry(dim=dim, n_cores=n_cores)

    def test_layouts_that_fit_keep_their_tiles(self):
        """Every layout the plain centering accepts is unchanged."""
        for dim in range(1, 13):
            for n_cores in range(1, 49):
                want = centered_core_entries(dim, n_cores)
                if len(set(want)) == n_cores:
                    assert MeshGeometry(dim, n_cores).core_entries == want

    @pytest.mark.parametrize(
        "dim, n_cores",
        [(dim, 2 * dim - 3 + k) for dim in (4, 6, 8, 10, 12) for k in range(4)],
    )
    def test_cores_off_a_shared_corner(self, dim, n_cores):
        """Offsets reaching a corner move onto the side's interior tiles."""
        assert len(set(centered_core_entries(dim, n_cores))) < n_cores
        entries = MeshGeometry(dim, n_cores).core_entries
        assert len(set(entries)) == n_cores
        for r, c in entries:
            assert r in (0, dim - 1) or c in (0, dim - 1)

    def test_sixteen_cores_on_an_eight_by_eight_mesh(self):
        config = vary_config(sixteen_core_config(), "mesh_dim", 8)
        assert config.geometry.dim == 8
        assert len(set(config.geometry.core_entries)) == 16

    def test_sixteen_cores_distinct(self):
        geo = MeshGeometry(dim=9, n_cores=16)
        assert len(set(geo.core_entries)) == 16
        # All on the perimeter.
        for r, c in geo.core_entries:
            assert r in (0, 8) or c in (0, 8)


class TestDistances:
    def test_distance_to_own_tile_is_zero(self):
        geo = MeshGeometry(dim=5, n_cores=4)
        r, c = geo.core_entries[0]
        bank = r * 5 + c
        assert geo.distances(0)[bank] == 0

    def test_manhattan(self):
        geo = MeshGeometry(dim=5, n_cores=4)
        # Core 0 at (2,0); bank (0,4) is 2+4=6 hops away.
        assert geo.distances(0)[0 * 5 + 4] == 6

    def test_snuca_larger_than_closest(self):
        geo = MeshGeometry(dim=5, n_cores=4)
        assert geo.snuca_avg_hops(0) > geo.reach_avg_hops(0, 512 * 1024)

    def test_mem_hops_nearest_corner(self):
        geo = MeshGeometry(dim=5, n_cores=4, n_mcus=1)
        # MCU at (0,0); core 0 at (2,0): 2 hops.
        assert geo.mem_hops(0) == 2

    def test_more_mcus_reduce_mem_hops(self):
        one = MeshGeometry(dim=9, n_cores=16, n_mcus=1)
        four = MeshGeometry(dim=9, n_cores=16, n_mcus=4)
        avg_one = np.mean([one.mem_hops(c) for c in range(16)])
        avg_four = np.mean([four.mem_hops(c) for c in range(16)])
        assert avg_four < avg_one


class TestReach:
    def test_reach_monotone_in_size(self):
        geo = MeshGeometry(dim=5, n_cores=4)
        sizes = np.linspace(0, geo.total_bytes, 30)
        hops = [geo.reach_avg_hops(0, s) for s in sizes]
        assert all(b >= a - 1e-9 for a, b in zip(hops, hops[1:]))

    def test_reach_at_zero_is_closest_bank(self):
        geo = MeshGeometry(dim=5, n_cores=4)
        assert geo.reach_avg_hops(0, 0) == geo.distances(0).min()

    def test_reach_at_full_is_snuca_mean(self):
        geo = MeshGeometry(dim=5, n_cores=4)
        assert geo.reach_avg_hops(0, geo.total_bytes) == pytest.approx(
            geo.snuca_avg_hops(0)
        )

    def test_reach_clamps_past_capacity(self):
        geo = MeshGeometry(dim=5, n_cores=4)
        assert geo.reach_avg_hops(0, geo.total_bytes * 10) == pytest.approx(
            geo.snuca_avg_hops(0)
        )

    def test_partial_bank(self):
        geo = MeshGeometry(dim=5, n_cores=4, bank_bytes=1024)
        # Half a bank: only the closest bank is used.
        assert geo.reach_avg_hops(0, 512) == geo.distances(0).min()

    def test_reach_fn_matches_method(self):
        geo = MeshGeometry(dim=5, n_cores=4)
        fn = geo.reach_fn(1)
        assert fn(2 * 512 * 1024) == geo.reach_avg_hops(1, 2 * 512 * 1024)

    @settings(max_examples=80, deadline=None)
    @given(reach_cases())
    def test_reach_curve_bytes_match_scalar(self, case):
        geo, sizes = case
        for core in range(geo.n_cores):
            want = np.array([geo.reach_avg_hops(core, s) for s in sizes])
            assert geo.reach_curve(core, sizes).tobytes() == want.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(reach_cases(), st.data())
    def test_central_reach_curve_bytes_match_closure(self, case, data):
        geo, sizes = case
        cores = data.draw(
            st.none()
            | st.lists(st.integers(0, geo.n_cores - 1), max_size=geo.n_cores, unique=True),
            label="accessing_cores",
        )
        want = np.array([central_reach_fn(geo, cores)(s) for s in sizes])
        assert geo.central_reach_curve(sizes, cores).tobytes() == want.tobytes()

    def test_reach_curve_on_grids(self):
        """The grids Jigsaw and Fig 13 evaluate, every core of both meshes."""
        for geo in REACH_MESHES[:2]:
            for n, chunk in [(401, 64 * 1024), (1297, 32 * 1024), (3000, 1000.5)]:
                sizes = np.arange(n) * float(chunk)
                for core in range(geo.n_cores):
                    want = np.array([geo.reach_avg_hops(core, s) for s in sizes])
                    assert geo.reach_curve(core, sizes).tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_reach_curve_rejects_what_the_scalar_rejects(self, bad):
        geo = MeshGeometry(dim=5, n_cores=4)
        with pytest.raises(ValueError):
            geo.reach_avg_hops(0, bad)
        with pytest.raises(ValueError, match="NaN"):
            geo.reach_curve(0, [0.0, bad])

    def test_reach_curve_minus_inf_is_closest_bank(self):
        geo = MeshGeometry(dim=5, n_cores=4)
        with np.errstate(all="raise"):
            got = geo.reach_curve(0, [-np.inf])
        assert got.tolist() == [geo.reach_avg_hops(0, -np.inf)]


class TestPlacement:
    def test_closest_placement_totals(self):
        geo = MeshGeometry(dim=5, n_cores=4, bank_bytes=1024)
        p = geo.closest_placement(0, 2500)
        assert p.total_bytes == 2500
        assert len(p.bank_bytes) == 3  # two full banks + one partial

    def test_closest_placement_avg_hops_matches_reach(self):
        geo = MeshGeometry(dim=5, n_cores=4)
        size = 3 * 512 * 1024 + 1000
        p = geo.closest_placement(0, size)
        assert p.avg_hops(geo.distances(0)) == pytest.approx(
            geo.reach_avg_hops(0, size)
        )

    def test_placement_add_negative_rejected(self):
        with pytest.raises(ValueError):
            Placement().add(0, -5)

    def test_empty_placement(self):
        p = Placement()
        assert p.total_bytes == 0
        assert p.avg_hops(np.zeros(4)) == 0.0


class TestCentroid:
    def test_single_core(self):
        geo = MeshGeometry(dim=5, n_cores=4)
        assert geo.centroid_core({2: 1.0}) == 2

    def test_empty_weights(self):
        geo = MeshGeometry(dim=5, n_cores=4)
        assert geo.centroid_core({}) == 0

    def test_balanced_weights_pick_some_core(self):
        geo = MeshGeometry(dim=9, n_cores=16)
        core = geo.centroid_core({c: 1.0 for c in range(16)})
        assert 0 <= core < 16
