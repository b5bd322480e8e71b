"""Reusable access-pattern primitives for workload generators.

These produce *byte-address* streams over an :class:`Allocation`.  They
model what an L2-filtered access stream looks like for common idioms:
sequential scans touch each line once; working-set random access produces
reuse at the working-set stack distance; Zipf access produces a smooth
miss-rate curve; pointer chases are permutation walks.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import repeat

import numpy as np

from repro.mem.allocator import Allocation

__all__ = [
    "scan",
    "repeated_scan",
    "uniform_random",
    "rank_permutation",
    "zipf_draws",
    "zipf_random",
    "pointer_chase",
    "strided",
    "gather",
]

#: Attempts per round of :func:`zipf_draws`.  On a 2-vCPU AVX-512 host
#: (numpy 2.4, 300K draws, best of 5) 8K and 16K attempts ran within
#: 10% of each other at every alpha from 1.05 to 1.6, and 64K up to
#: 1.6x slower, its dozen float64 temporaries out of the L2 cache.  At
#: 8K each temporary (64 KB) stays under glibc's default 128 KiB mmap
#: threshold.
_ZIPF_BLOCK = 8_192
#: Assumed worst-case gap, in ulps, between ``np.power`` and libm's
#: ``pow``, which numpy's own Zipf sampler calls.  On AVX-512 hosts
#: numpy routes ``np.power`` through SVML.  Measured with numpy 2.4 on
#: 1M sampler inputs for each of both exponents at 12 alphas from 1.01
#: to 4, the two differed on up to 5% of inputs, by at most 1 ulp.
#: ``tests/test_patterns.py`` fails on a numpy whose gap exceeds a
#: quarter of this.
_POW_GAP_ULPS = 16
_POW_TOL = _POW_GAP_ULPS * 2.0**-52
#: ``(double)INT64_MAX``: numpy's bound on a Zipf draw.
_TWO_63 = 2.0**63


def _line_base(alloc: Allocation, line_bytes: int) -> tuple[int, int]:
    n_lines = max(1, alloc.size // line_bytes)
    return alloc.base, n_lines


def scan(alloc: Allocation, line_bytes: int = 64) -> np.ndarray:
    """One sequential pass over the allocation, one access per line."""
    base, n_lines = _line_base(alloc, line_bytes)
    return base + np.arange(n_lines, dtype=np.int64) * line_bytes


def repeated_scan(
    alloc: Allocation, passes: int, line_bytes: int = 64
) -> np.ndarray:
    """``passes`` sequential sweeps (stencil-style reuse at WS distance)."""
    one = scan(alloc, line_bytes)
    return np.tile(one, passes)


def strided(
    alloc: Allocation, stride_bytes: int, count: int, line_bytes: int = 64
) -> np.ndarray:
    """Strided walk, wrapping at the end of the allocation."""
    if stride_bytes <= 0:
        raise ValueError(f"stride_bytes must be positive, got {stride_bytes}")
    offs = (np.arange(count, dtype=np.int64) * stride_bytes) % max(
        alloc.size - line_bytes + 1, 1
    )
    return alloc.base + offs


def uniform_random(
    rng: np.random.Generator, alloc: Allocation, count: int, line_bytes: int = 64
) -> np.ndarray:
    """Uniform random line accesses within the allocation."""
    base, n_lines = _line_base(alloc, line_bytes)
    idx = rng.integers(0, n_lines, size=count, dtype=np.int64)
    return base + idx * line_bytes


def _libm_pow(base: np.ndarray, exponent: float) -> np.ndarray:
    """libm's ``pow`` (``math.pow``) of each element.

    Iterates the array rather than a ``tolist()`` copy: with thousands
    of floats alive at once, the benchmark's ``mixes`` peak RSS read
    about 0.2 MB higher.
    """
    return np.fromiter(map(math.pow, base, repeat(exponent)), np.float64, len(base))


def zipf_draws(rng: np.random.Generator, alpha: float, size: int) -> np.ndarray:
    """``rng.zipf(alpha, size=size)``: the same values and generator state.

    numpy draws with a scalar rejection loop (``random_zipf``, about
    200 ns a draw).  With ``am1 = alpha - 1``, each attempt reads two
    doubles ``U01`` and ``V`` and computes::

        U = U01 * Umin + (1 - U01)        Umin = pow(2^63, -am1)
        X = floor(pow(U, -1 / am1))       reject X > 2^63 or X < 1
        T = pow(1 + 1 / X, am1)           b = pow(2, am1)
        accept X if V * X * (T - 1) / (b - 1) <= T / b

    This replays the loop a block of attempts at a time.  A round that
    still needs ``k`` draws reads ``2 * min(k, block)`` doubles with
    ``rng.random`` (the same doubles, in the same order) and keeps
    every acceptance.  At most ``k`` attempts accept; when all ``k`` do,
    the last attempt was the last acceptance.  So no double is read
    that numpy would not read, and the generator ends in numpy's state.

    Every operation is IEEE arithmetic, as in numpy's C, except ``pow``:
    ``np.power`` may differ from libm's ``pow`` by up to
    :data:`_POW_GAP_ULPS` ulps.  An attempt whose ``floor`` or
    acceptance test lies within that gap of its boundary is recomputed
    with libm's ``pow``.  Every ``X >= 2^48`` lies in the band, so heavy
    tails take that path more often: about 14% of attempts at alpha
    1.05, 4% at 1.1 and 0.2% at 1.2.

    Like numpy, raises ``ValueError`` for ``alpha <= 1`` or NaN, and
    returns ones without reading the generator for ``alpha >= 1025``.
    """
    a = float(alpha)
    if not a > 1.0:
        raise ValueError("a <= 1 or a is NaN")
    out = np.empty(size, dtype=np.int64)
    if a >= 1025.0:
        out.fill(1)
        return out
    am1 = a - 1.0
    b = math.pow(2.0, am1)
    umin = math.pow(_TWO_63, -am1)
    expo = -1.0 / am1
    filled = 0
    while filled < size:
        m = min(size - filled, _ZIPF_BLOCK)
        uv = rng.random(2 * m)
        u01, v = uv[0::2], uv[1::2]
        u = u01 * umin + (1.0 - u01)
        p = np.power(u, expo)
        # floor(p) is certain unless an integer lies within the gap of p.
        exact = np.floor(p * (1.0 - _POW_TOL)) != np.floor(p * (1.0 + _POW_TOL))
        if exact.any():
            p[exact] = _libm_pow(u[exact], expo)
        x = np.floor(p)
        base = 1.0 / x + 1.0
        t = np.power(base, am1)
        vx = v * x
        lhs = vx * (t - 1.0) / (b - 1.0)
        rhs = t / b
        # T's gap moves rhs by up to tol * rhs and lhs by up to
        # tol * vx * T / (b - 1), which is tol * lhs * T / (T - 1): the
        # cancellation in T - 1 widens the band as X grows.
        exact |= np.abs(lhs - rhs) <= _POW_TOL * (vx * t / (b - 1.0) + rhs)
        if exact.any():
            t_exact = _libm_pow(base[exact], am1)
            lhs[exact] = vx[exact] * (t_exact - 1.0) / (b - 1.0)
            rhs[exact] = t_exact / b
        accepted = x[(lhs <= rhs) & (x <= _TWO_63) & (x >= 1.0)]
        out[filled : filled + len(accepted)] = accepted
        filled += len(accepted)
    return out


@lru_cache(maxsize=16)
def rank_permutation(n_lines: int) -> np.ndarray:
    """The fixed, read-only rank -> line permutation of a region size.

    Cached, so a build draws it once per region size rather than once
    per phase; ``build_workload`` clears the cache when a build ends.
    """
    perm = np.random.default_rng(0xC0FFEE ^ n_lines).permutation(n_lines)
    perm.flags.writeable = False
    return perm


def zipf_random(
    rng: np.random.Generator,
    alloc: Allocation,
    count: int,
    alpha: float = 1.2,
    line_bytes: int = 64,
) -> np.ndarray:
    """Zipf-skewed random line accesses (hot-head reuse).

    Line popularity ranks are shuffled so the hot lines are spread over
    the allocation rather than packed at its start.
    """
    base, n_lines = _line_base(alloc, line_bytes)
    ranks = zipf_draws(rng, alpha, count)
    ranks -= 1
    ranks %= n_lines
    # Fixed permutation decouples rank from address.
    lines = rank_permutation(n_lines)[ranks]
    lines *= line_bytes
    lines += base
    return lines


def pointer_chase(
    rng: np.random.Generator,
    alloc: Allocation,
    count: int,
    line_bytes: int = 64,
) -> np.ndarray:
    """A random-permutation walk (linked-list traversal).

    Touches lines in a fixed pseudo-random cycle: full-working-set reuse
    distance, like mcf's node walks.
    """
    base, n_lines = _line_base(alloc, line_bytes)
    perm = rng.permutation(n_lines)
    idx = perm[np.arange(count, dtype=np.int64) % n_lines]
    return base + idx * line_bytes


def gather(
    alloc: Allocation, indices: np.ndarray, elem_bytes: int
) -> np.ndarray:
    """Element accesses ``alloc[indices]`` (CSR gathers, hash probes)."""
    return alloc.base + np.asarray(indices, dtype=np.int64) * elem_bytes
