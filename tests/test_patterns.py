"""Exactness of the block Zipf sampler against ``Generator.zipf``.

``zipf_draws`` must return numpy's values and leave the generator in
numpy's state, or every zipf-patterned trace changes.  Its guard band
rests on one measured premise, pinned here too: ``np.power`` stays
within a quarter of the assumed gap of libm's ``pow``.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.mem import HeapAllocator
from repro.workloads import build_workload, patterns
from repro.workloads.patterns import _POW_GAP_ULPS, _ZIPF_BLOCK, zipf_draws
from repro.workloads.spec.synth import PhaseSpec, RegionSpec, build_synthetic

#: Every alpha a built-in builder draws with (SPEC ``RegionSpec``s,
#: PBBS ``dict``, ``delaunay``, ``ray`` and ``setCover``), plus 1.01,
#: a heavier tail than any of them.
BUILDER_ALPHAS = [1.01, 1.05, 1.1, 1.15, 1.2, 1.3, 1.4, 1.5, 1.6]
SIZES = [0, 1, _ZIPF_BLOCK - 1, _ZIPF_BLOCK, _ZIPF_BLOCK + 1]


def assert_replays_numpy(alpha, size, seed):
    want_rng = np.random.default_rng(seed)
    got_rng = np.random.default_rng(seed)
    want = want_rng.zipf(alpha, size=size)
    got = zipf_draws(got_rng, alpha, size)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestZipfDraws:
    @settings(max_examples=60, deadline=None)
    @given(
        alpha=st.floats(1.0, 4.0, exclude_min=True),
        size=st.sampled_from(SIZES),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(alpha=1.0 + 2.0**-52, size=_ZIPF_BLOCK + 1, seed=0)
    def test_matches_generator_zipf(self, alpha, size, seed):
        assert_replays_numpy(alpha, size, seed)

    @pytest.mark.parametrize("alpha", BUILDER_ALPHAS)
    @pytest.mark.parametrize("size", SIZES + [300_000])
    def test_matches_at_builder_alphas(self, alpha, size):
        assert_replays_numpy(alpha, size, seed=int(alpha * 1000) + size)

    @pytest.mark.parametrize("alpha", [17.5, 100.0, 1024.99])
    def test_matches_at_steep_alphas(self, alpha):
        # Past alpha ~18, Umin underflows to zero.
        assert_replays_numpy(alpha, 50_000, seed=5)

    @pytest.mark.parametrize("alpha", [1025.0, 5000.0, math.inf])
    def test_steepest_alphas_return_ones_and_draw_nothing(self, alpha):
        rng = np.random.default_rng(9)
        before = rng.bit_generator.state
        got = zipf_draws(rng, alpha, 7)
        assert got.dtype == np.int64
        assert got.tolist() == [1] * 7
        assert rng.bit_generator.state == before
        assert_replays_numpy(alpha, 7, seed=9)

    @pytest.mark.parametrize("alpha", [1.0, 0.5, -2.0, math.nan])
    @pytest.mark.parametrize("size", [0, 3])
    def test_invalid_alpha_raises_numpys_error(self, alpha, size):
        with pytest.raises(ValueError) as want:
            np.random.default_rng(0).zipf(alpha, size=size)
        with pytest.raises(ValueError) as got:
            zipf_draws(np.random.default_rng(0), alpha, size)
        assert str(got.value) == str(want.value) == "a <= 1 or a is NaN"


@pytest.mark.parametrize("alpha", [1.01, 1.05, 1.2, 1.6, 3.0])
@pytest.mark.parametrize("max_ulps", [1, _POW_GAP_ULPS // 2, _POW_GAP_ULPS])
def test_band_absorbs_any_power_within_the_gap(monkeypatch, alpha, max_ulps):
    """Exact for any ``np.power`` within the assumed gap of libm's pow.

    Every ``np.power`` result is moved by a random number of ulps, up to
    ``max_ulps`` either way; the guard bands must still send every
    attempt whose outcome could change to libm's ``pow``.
    """
    noise = np.random.default_rng(int(alpha * 100) + max_ulps)
    power = np.power

    def skewed_power(base, exponent):
        out = power(base, exponent)
        steps = noise.integers(-max_ulps, max_ulps + 1, size=out.shape)
        return (out.view(np.int64) + steps).view(np.float64)

    monkeypatch.setattr(np, "power", skewed_power)
    assert_replays_numpy(alpha, 100_000, seed=max_ulps)


def _ulps(a, b):
    return np.abs(a.view(np.int64) - b.view(np.int64))


@pytest.mark.parametrize("alpha", BUILDER_ALPHAS)
def test_np_power_is_within_a_quarter_of_the_assumed_gap(alpha):
    """The premise of the guard band, for both exponents at this alpha.

    If a numpy's ``np.power`` drifts further from libm's ``pow``, this
    fails instead of letting traces change without a sound.
    """
    n = 1_000_000
    am1 = alpha - 1.0
    rng = np.random.default_rng(int(alpha * 100))
    u01 = rng.random(n)
    umin = math.pow(2.0**63, -am1)
    u = u01 * umin + (1.0 - u01)
    x = np.floor(np.power(u, -1.0 / am1))
    base = 1.0 / x + 1.0
    for inputs, exponent in ((u, -1.0 / am1), (base, am1)):
        fast = np.power(inputs, exponent)
        libm = patterns._libm_pow(inputs, exponent)
        assert int(_ulps(fast, libm).max()) <= _POW_GAP_ULPS // 4


class TestZipfRandom:
    def test_rank_permutation_is_shared_and_read_only(self):
        perm = patterns.rank_permutation(1000)
        assert perm is patterns.rank_permutation(1000)
        assert not perm.flags.writeable
        want = np.random.default_rng(0xC0FFEE ^ 1000).permutation(1000)
        assert np.array_equal(perm, want)

    def test_a_build_draws_each_permutation_once_and_keeps_none(self):
        patterns.rank_permutation.cache_clear()
        build_synthetic(
            "toy",
            [RegionSpec("hot", 64 * 512, "zipf")],
            [PhaseSpec({"hot": 1.0}, 1000)] * 4,
            apki=10.0,
        )
        info = patterns.rank_permutation.cache_info()
        assert (info.misses, info.hits) == (1, 3)
        build_workload("bzip2", scale="train", seed=0)
        assert patterns.rank_permutation.cache_info().currsize == 0

    def test_lines_follow_the_permuted_ranks(self):
        heap = HeapAllocator()
        alloc = heap.malloc(64 * 1000)
        got = patterns.zipf_random(np.random.default_rng(4), alloc, 5000, 1.3)
        ranks = (np.random.default_rng(4).zipf(1.3, size=5000) - 1) % 1000
        perm = np.random.default_rng(0xC0FFEE ^ 1000).permutation(1000)
        assert np.array_equal(got, alloc.base + perm[ranks] * 64)
