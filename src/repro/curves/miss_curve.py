"""Miss-rate curves: misses as a function of cache size.

A :class:`MissCurve` stores miss *counts* sampled on a uniform size grid
(``chunk_bytes`` per grid step).  Counts, rather than rates, make curves
composable across profiling intervals; MPKI is derived on demand from the
instruction count of the interval the curve was profiled over.

Curves are always non-increasing in size.  Several consumers (Jigsaw's
partitioner, WhirlTool's distance metric) work with the convex hull, which
is the best performance achievable by partitioning within a VC (paper
Sec 4.2, citing Talus).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

__all__ = ["MissCurve", "interp_rows"]


@dataclass
class MissCurve:
    """Misses vs. cache size on a uniform grid.

    Attributes:
        misses: ``misses[i]`` is the number of misses with a cache of
            ``i * chunk_bytes`` bytes.  Non-increasing and read-only,
            length ``n + 1`` where ``n`` is the number of chunks spanned.
        chunk_bytes: grid granularity in bytes.
        accesses: number of accesses profiled into this curve.
        instructions: instructions executed over the profiling window
            (used to convert counts to per-kilo-instruction rates).
    """

    misses: np.ndarray
    chunk_bytes: int
    accesses: float
    instructions: float
    _hull_cache: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        m = np.asarray(self.misses, dtype=np.float64)
        if m.ndim != 1 or len(m) == 0:
            raise ValueError("misses must be a non-empty 1-D array")
        if self.chunk_bytes <= 0:
            raise ValueError(f"chunk_bytes must be positive, got {self.chunk_bytes}")
        # Already-normalized arrays (every curve a cache load hands back)
        # are not copied, so memory-mapped payloads stay zero-copy views.
        # Non-increasing + final value >= 0 implies all values >= 0,
        # making accumulate-then-clip the identity, and all values finite
        # exactly when the first one is.
        normalized = m[-1] >= 0.0 and bool((m[1:] <= m[:-1]).all())
        if not np.isfinite(m[0] if normalized else m).all():
            raise ValueError("misses must be finite (no NaN or inf)")
        if normalized:
            if m.flags.writeable:
                # A view, so the caller's own buffer stays writable.
                m = m.view()
        else:
            # Enforce monotonicity: profiling noise (sampling) can produce
            # tiny upticks; a miss curve is non-increasing by definition.
            m = np.minimum.accumulate(m)
            np.clip(m, 0.0, None, out=m)
        # Curves are shared (the profile memo, mapped payloads, cached
        # hulls), so numpy must reject every in-place write to one.
        m.flags.writeable = False
        self.misses = m

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def zero(
        cls, n_chunks: int, chunk_bytes: int, instructions: float = 1.0
    ) -> "MissCurve":
        """An empty curve (no accesses, no misses) over ``n_chunks`` chunks."""
        return cls(
            misses=np.zeros(n_chunks + 1),
            chunk_bytes=chunk_bytes,
            accesses=0.0,
            instructions=instructions,
        )

    # ------------------------------------------------------------------
    # Size/index conversion
    # ------------------------------------------------------------------
    @property
    def n_chunks(self) -> int:
        """Number of grid steps (the largest modeled size in chunks)."""
        return len(self.misses) - 1

    @property
    def max_bytes(self) -> int:
        """Largest cache size the curve models."""
        return self.n_chunks * self.chunk_bytes

    def sizes_bytes(self) -> np.ndarray:
        """The size grid, in bytes, matching :attr:`misses`."""
        return np.arange(len(self.misses)) * float(self.chunk_bytes)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def misses_at(self, size_bytes: float) -> float:
        """Misses for a cache of ``size_bytes`` (linear interpolation).

        Sizes beyond the modeled range clamp to the final value.
        """
        if size_bytes < 0:
            raise ValueError(f"size_bytes must be non-negative, got {size_bytes}")
        pos = size_bytes / self.chunk_bytes
        if pos >= self.n_chunks:
            return float(self.misses[-1])
        lo = int(pos)
        frac = pos - lo
        return float(self.misses[lo] * (1 - frac) + self.misses[lo + 1] * frac)

    def mpki_at(self, size_bytes: float) -> float:
        """Misses per kilo-instruction at ``size_bytes``."""
        return self.misses_at(size_bytes) * 1000.0 / self.instructions

    @property
    def apki(self) -> float:
        """Accesses per kilo-instruction over the profiling window."""
        return self.accesses * 1000.0 / self.instructions

    def mpki_curve(self) -> np.ndarray:
        """The whole curve as MPKI values on the size grid."""
        return self.misses * 1000.0 / self.instructions

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def convex_hull(self) -> np.ndarray:
        """Lower convex hull of the miss curve (same grid).

        The hull is the best achievable misses-vs-size tradeoff when the
        curve's own capacity may be internally partitioned (Talus); it is
        what the capacity partitioner and WhirlTool's distance metric
        consume.  Computed with the monotone-chain scan
        :func:`_lower_convex_hull_fast` and cached read-only: every caller,
        and every job sharing a memoized curve, reads the same array.
        """
        if self._hull_cache is None:
            self._hull_cache = _cached_hull(self.misses)
        return self._hull_cache

    def hull_curve(self) -> "MissCurve":
        """A new :class:`MissCurve` whose values are the convex hull."""
        return MissCurve(
            misses=self.convex_hull().copy(),
            chunk_bytes=self.chunk_bytes,
            accesses=self.accesses,
            instructions=self.instructions,
        )

    def resampled(self, n_chunks: int) -> "MissCurve":
        """Resample onto a grid with ``n_chunks`` steps over the same span."""
        if n_chunks <= 0:
            raise ValueError(f"n_chunks must be positive, got {n_chunks}")
        old_sizes = self.sizes_bytes()
        new_chunk = self.max_bytes / n_chunks
        new_sizes = np.arange(n_chunks + 1) * new_chunk
        misses = np.interp(new_sizes, old_sizes, self.misses)
        return MissCurve(
            misses=misses,
            chunk_bytes=int(round(new_chunk)),
            accesses=self.accesses,
            instructions=self.instructions,
        )

    def extended(self, n_chunks: int) -> "MissCurve":
        """Extend the grid to ``n_chunks`` steps, padding with the last value."""
        if n_chunks < self.n_chunks:
            raise ValueError("extended() cannot shrink a curve")
        pad = np.full(n_chunks - self.n_chunks, self.misses[-1])
        return MissCurve(
            misses=np.concatenate([self.misses, pad]),
            chunk_bytes=self.chunk_bytes,
            accesses=self.accesses,
            instructions=self.instructions,
        )

    def scaled(self, factor: float) -> "MissCurve":
        """Scale access/miss counts by ``factor`` (e.g. sampling correction)."""
        if factor < 0:
            raise ValueError(f"factor must be non-negative, got {factor}")
        return MissCurve(
            misses=self.misses * factor,
            chunk_bytes=self.chunk_bytes,
            accesses=self.accesses * factor,
            instructions=self.instructions,
        )

    def merged_over_time(self, other: "MissCurve") -> "MissCurve":
        """Accumulate two curves profiled over *disjoint time windows*.

        Both counts and instruction windows add.  This is how a whole-run
        curve is built from per-interval curves.  Requires matching grids.
        """
        if other.chunk_bytes != self.chunk_bytes or other.n_chunks != self.n_chunks:
            raise ValueError("merged_over_time requires identical size grids")
        return MissCurve(
            misses=self.misses + other.misses,
            chunk_bytes=self.chunk_bytes,
            accesses=self.accesses + other.accesses,
            instructions=self.instructions + other.instructions,
        )


def _pair_rates(a: MissCurve, b: MissCurve) -> tuple[np.ndarray, np.ndarray]:
    """Both curves of a pair as rate rows (misses per instruction).

    The pair models (Listing 1's combine, the optimal split) read both
    curves on the longer of the two grids, the shorter one held at its
    last value, and normalize counts to rates so that curves profiled
    over different windows are comparable.
    """
    if a.chunk_bytes != b.chunk_bytes:
        raise ValueError("curves must share chunk_bytes")
    n = max(a.n_chunks, b.n_chunks)
    ra, rb = (
        (c.extended(n).misses if c.n_chunks < n else c.misses)
        / max(c.instructions, 1e-12)
        for c in (a, b)
    )
    return ra, rb


def _pair_curve(rates: np.ndarray, a: MissCurve, b: MissCurve) -> MissCurve:
    """A pair model's rate row as a curve: the pair's longer window, summed accesses."""
    instructions = max(a.instructions, b.instructions)
    return MissCurve(
        misses=rates * instructions,
        chunk_bytes=a.chunk_bytes,
        accesses=a.accesses + b.accesses,
        instructions=instructions,
    )


def interp_rows(matrix: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Row-wise linear interpolation of ``matrix[t]`` at ``pos[t]``.

    The exact arithmetic of :meth:`MissCurve.misses_at` (and of
    ``combine._read``), vectorized across rows: truncate, interpolate,
    clamp past the final column.  Every batched engine that replays a
    scalar interpolation loop (the combine model's read heads, scheme
    accounting) goes through this helper so the float expressions stay
    bit-identical to the serial oracles.

    The domain contract also matches :meth:`MissCurve.misses_at`
    exactly: positions past the final column clamp to it, and negative
    positions raise.  (Int truncation rounds negatives toward zero, so
    without the check a below-domain query would silently *extrapolate*
    off the first segment — diverging from the serial oracle it is
    pinned against.)
    """
    return _row_reader(matrix)(pos)


def _row_reader(matrix: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """:func:`interp_rows` bound to one ``matrix``, for repeated reads.

    The row offsets into the flattened matrix and its final column are
    computed once here, so a loop that reads the same rows at every step
    (Listing 1's read heads) pays only the gather and the interpolation
    per read.  Each read is :func:`interp_rows`' exact arithmetic and
    domain check.
    """
    n = matrix.shape[1] - 1
    last = matrix[:, -1]
    flat = np.ascontiguousarray(matrix).reshape(-1)
    offsets = np.arange(matrix.shape[0]) * (n + 1)

    def read(pos: np.ndarray) -> np.ndarray:
        if bool((pos < 0).any()):
            raise ValueError("pos must be non-negative")
        if n == 0:
            return last.copy()
        over = pos >= n
        lo = pos.astype(np.int64)
        np.minimum(lo, n - 1, out=lo)
        frac = pos - lo
        at = offsets + lo
        interior = flat[at] * (1 - frac) + flat[at + 1] * frac
        return np.where(over, last, interior)

    return read


def _first_minimum(values: np.ndarray) -> int:
    """First argmin, or the last index if NaN, inf or chord-test overflow is possible."""
    m = int(values.argmin())
    if not np.isfinite((values.max() - values[m]) * len(values)):
        return len(values) - 1
    return m


def _lower_convex_hull_fast(values: np.ndarray) -> np.ndarray:
    """Lower convex hull of ``values`` sampled at integer x positions.

    Monotone-chain over the points ``(i, values[i])``, re-sampled back
    onto every integer position (piecewise-linear).  It is bit-identical
    to the plain scan, the reference oracle in
    ``tests/oracles/partition.py``:

    - When every value after the first minimum ``m`` equals ``values[m]``
      (every miss curve and rate row: they are non-increasing), only
      ``values[:m+1]`` is scanned and ``n-1`` is pushed after it.  Real
      curves reach ``m`` at a few percent of the grid, and most of the
      reference scan's pops come after it.  Other inputs (a rising tail,
      NaN, infinities) take the full scan.  This is exact: ``m`` is never
      popped, because a later point ``i`` tests ``(s, m, i)`` with ``v[s]
      > v[m]`` (``m`` is the *first* minimum) and ``v[i] >= v[m]``, so
      ``d = v[m] - v[s] < 0`` and ``d*(i-s) < d*(m-s) <= (v[i]-v[s])*(m-s)``;
      rounding is monotone, and the two products of ``d`` stay finite
      (:func:`_first_minimum`) and differ by far more than an ulp.
      Points below ``m`` are never tested again, and on a constant suffix
      each point ties with its predecessor (``0 >= 0``) and pops it,
      leaving only ``n-1``.  The stack is interpolated once; the tail is
      not copied from ``values``, because inside a ``-0.0`` plateau
      ``np.interp`` returns ``+0.0``, and so does the reference.
    - The scan (:func:`_hull_stack`) runs on a plain python list
      (identical IEEE doubles, much cheaper indexing than numpy scalars)
      and keeps the top vertex pair in locals, so a chord test reads no
      list.

    Every chord test evaluated is the same float64 expression on the same
    operands in the same order as the reference scan, so the vertex stack
    — and the interpolated hull — are bit-identical (pinned by the
    Hypothesis property tests).
    """
    values = np.asarray(values, dtype=np.float64)
    n = len(values)
    if n <= 2:
        return values.copy()
    m = _first_minimum(values)
    flat_tail = m < n - 1 and bool((values[m + 1 :] == values[m]).all())
    head = values[: m + 1] if flat_tail else values
    stack = _hull_stack(head.tolist())
    if flat_tail:
        stack.append(n - 1)
    if len(stack) == n:
        return values.copy()
    xs = np.asarray(stack, dtype=np.float64)
    return np.interp(np.arange(n, dtype=np.float64), xs, values[stack])


def _hull_stack(v: list[float]) -> list[int]:
    """The lower hull's vertex stack over the points ``(i, v[i])``.

    The oracle's monotone chain with its top vertex pair ``(i0, i1)``
    and their values held in locals; ``below`` holds the rest of the
    stack.  Each chord test is the oracle's expression on the same
    operands, so the stack is the oracle's.
    """
    end = len(v)
    if end < 3:
        return list(range(end))
    below: list[int] = []
    i0, v0 = 0, v[0]
    i1, v1 = 1, v[1]
    for i in range(2, end):
        vi = v[i]
        while (v1 - v0) * (i - i0) >= (vi - v0) * (i1 - i0):
            if not below:
                break  # i1 pops and i lands on the lone i0
            i1, v1 = i0, v0
            i0 = below.pop()
            v0 = v[i0]
        else:
            below.append(i0)
            i0, v0 = i1, v1
        i1, v1 = i, vi
    below.append(i0)
    below.append(i1)
    return below


def prime_hull_caches(curves: Iterable["MissCurve"]) -> None:
    """Pre-fill :meth:`MissCurve.convex_hull` caches for ``curves``.

    The batched engines call this once up front so every later
    ``hull_curve()`` — in scheme decisions and in accounting — is a cache
    hit.  Curves whose hull is already cached are skipped; cached values
    are bit-identical to the lazily computed ones.
    """
    for curve in curves:
        if curve._hull_cache is None:
            curve._hull_cache = _cached_hull(curve.misses)


def _cached_hull(misses: np.ndarray) -> np.ndarray:
    """A read-only hull for :attr:`MissCurve._hull_cache`."""
    hull = _lower_convex_hull_fast(misses)
    hull.flags.writeable = False
    return hull
