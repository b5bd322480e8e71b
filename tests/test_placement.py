"""Unit tests for greedy + trading placement."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.placement import (
    greedy_placement_reference,
    trading_placement_reference,
)

from repro.nuca import MeshGeometry, four_core_config, sixteen_core_config
from repro.schemes import greedy_placement, trading_placement
from repro.schemes.placement import PLACE_CHUNK

BANK = 512 * 1024
SHIPPED_MESHES = [four_core_config().geometry, sixteen_core_config().geometry]


@st.composite
def demand_sets(draw):
    """A mesh and 1-40 VC demands, several per core, some empty.

    Sizes are whole 64 KB units, up to about twice an even share of the
    LLC.  Integer intensities (accesses = m x size) tie many swap gains,
    so the order banks are visited in and the strict ``>`` both matter.
    """
    geo = draw(st.sampled_from(SHIPPED_MESHES))
    n_vcs = draw(st.integers(1, 40))
    units = geo.total_bytes // PLACE_CHUNK
    tied = draw(st.booleans())
    demands = {}
    for vc in range(n_vcs):
        core = draw(st.integers(0, geo.n_cores - 1))
        size = float(draw(st.integers(0, max(1, 2 * units // n_vcs))) * PLACE_CHUNK)
        if tied:
            accesses = float(draw(st.integers(1, 3))) * size
        else:
            accesses = draw(st.floats(0, 1e6, allow_nan=False))
        demands[vc] = (core, size, accesses)
    return geo, demands


@pytest.fixture
def geo():
    return MeshGeometry(dim=5, n_cores=4, bank_bytes=BANK)


class TestGreedy:
    def test_capacity_satisfied(self, geo):
        demands = {0: (0, 3 * BANK, 1000.0)}
        p = greedy_placement(geo, demands)[0]
        assert p.total_bytes == 3 * BANK

    def test_closest_banks_first(self, geo):
        demands = {0: (0, 2 * BANK, 1000.0)}
        p = greedy_placement(geo, demands)[0]
        hops = p.avg_hops(geo.distances(0))
        assert hops == pytest.approx(geo.reach_avg_hops(0, 2 * BANK))

    def test_intense_vc_gets_priority(self, geo):
        # Small hot VC vs large cold VC, same core.
        demands = {
            0: (0, BANK, 100.0),  # intensity 100/BANK
            1: (0, 4 * BANK, 100.0),  # intensity 25/BANK
        }
        p = greedy_placement(geo, demands)
        d = geo.distances(0)
        assert p[0].avg_hops(d) < p[1].avg_hops(d)

    def test_banks_not_oversubscribed(self, geo):
        demands = {i: (i % 4, 8 * BANK, 100.0) for i in range(4)}
        ps = greedy_placement(geo, demands)
        usage = {}
        for p in ps.values():
            for bank, b in p.bank_bytes.items():
                usage[bank] = usage.get(bank, 0) + b
        assert all(v <= BANK + 1e-6 for v in usage.values())

    def test_zero_size_vc_empty(self, geo):
        ps = greedy_placement(geo, {0: (0, 0.0, 10.0)})
        assert ps[0].total_bytes == 0


class TestTrading:
    def total_movement(self, geo, demands, placements):
        total = 0.0
        for vc, (core, size, acc) in demands.items():
            if size <= 0:
                continue
            intensity = acc / size
            d = geo.distances(core)
            for bank, b in placements[vc].bank_bytes.items():
                total += intensity * d[bank] * b
        return total

    def test_never_worse_than_greedy(self, geo):
        demands = {
            0: (0, 3 * BANK, 500.0),
            1: (2, 3 * BANK, 2000.0),
            2: (1, 2 * BANK, 100.0),
        }
        g = greedy_placement(geo, demands)
        t = trading_placement(geo, demands)
        assert self.total_movement(geo, demands, t) <= self.total_movement(
            geo, demands, g
        ) + 1e-6

    def test_capacity_preserved(self, geo):
        demands = {0: (0, 3 * BANK, 500.0), 1: (2, 5 * BANK, 900.0)}
        t = trading_placement(geo, demands)
        assert t[0].total_bytes == pytest.approx(3 * BANK)
        assert t[1].total_bytes == pytest.approx(5 * BANK)

    def test_single_vc_unchanged(self, geo):
        demands = {0: (0, 2 * BANK, 100.0)}
        t = trading_placement(geo, demands)
        assert t[0].avg_hops(geo.distances(0)) == pytest.approx(
            geo.reach_avg_hops(0, 2 * BANK)
        )

    def test_contended_cores_split_territory(self, geo):
        """Two cores with hot VCs should each keep their nearby banks."""
        demands = {0: (0, 6 * BANK, 5000.0), 1: (2, 6 * BANK, 5000.0)}
        t = trading_placement(geo, demands)
        h0 = t[0].avg_hops(geo.distances(0))
        h1 = t[1].avg_hops(geo.distances(2))
        # Each VC should sit far closer to its own core than S-NUCA would.
        assert h0 < geo.snuca_avg_hops(0)
        assert h1 < geo.snuca_avg_hops(2)

    @settings(max_examples=60, deadline=None)
    @given(demand_sets())
    def test_matches_numpy_scalar_oracle(self, case):
        """Same banks, in the same order, with the same bytes, for every VC."""
        geo, demands = case
        for fast, ref in [
            (greedy_placement, greedy_placement_reference),
            (trading_placement, trading_placement_reference),
        ]:
            got, want = fast(geo, demands), ref(geo, demands)
            assert list(got) == list(want)
            for vc in demands:
                assert list(got[vc].bank_bytes.items()) == list(
                    want[vc].bank_bytes.items()
                )
