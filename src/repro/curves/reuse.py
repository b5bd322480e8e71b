"""Stack-distance (reuse-distance) profiling.

The stack distance of an access is the number of *distinct* cache lines
referenced since the previous access to the same line.  Under fully
associative LRU, an access hits in a cache of S lines iff its stack
distance is < S, so the histogram of stack distances *is* the miss-rate
curve (Mattson et al.).  Jigsaw's hardware GMON monitors approximate this
curve per VC; here we compute it in software, exactly or approximately
via address sampling, which is both faster and closer to what a sampled
hardware monitor sees.

The exact engine, :func:`stack_distances`, reduces Mattson's algorithm
to offline 2D dominance counting: with ``prev[i]`` the index of the
previous access to ``lines[i]`` (or -1), every distinct line in the
reuse window of a re-touch has exactly one first-touch inside the
window, so its distance is::

    #{j < i : prev[j] <= prev[i]} - (prev[i] + 1)

A first touch (``prev < 0``) before ``i`` always counts, so only the
re-touches enter the sweep (:func:`_distances_from_prev`).  Their
dominance counts are resolved at once by a batched wavelet sweep over
position bits (:func:`_dominance_counts`) whose last six bits, on large
sweeps, are counted with one 64-bit bitmap per row of 64 accesses
(``np.bitwise_count``, hence numpy >= 2.0).  That is O(n log n) work
with NumPy-level constants and no per-access Python loop.  The original
per-access Fenwick sweep it replaced is a slow, independently-derived
oracle for tests and the perf gate (``stack_distances_reference`` in
``tests/oracles/reuse.py``).

The bookkeeping around the sweep avoids full-trace stable sorts and
hash tables.  Previous occurrences come from one quicksort of distinct
(line, position) keys (:func:`_prev_occurrence`); sampled accesses are
grouped by region with one quicksort of distinct (region, position) keys
(:func:`_group_by_region`); and per-region access counts are the run
lengths of a sorted copy of the region ids (:func:`_region_counts`).
Keys made distinct by their position sort the same with or without
stability, so each of these equals the stable sort it replaces.  The
streaming engine (:mod:`repro.ingest.stream`) uses the same helpers.
Every (region, interval) curve of a :meth:`StackDistanceProfiler.profile`
call comes from one histogram of size buckets over all its cells.
"""

from __future__ import annotations

import numpy as np

from repro.curves.miss_curve import MissCurve

__all__ = [
    "IntervalBucketAccumulator",
    "StackDistanceProfiler",
    "distance_bucket_counts",
    "miss_curve_from_bucket_counts",
    "miss_curve_from_distances",
    "stack_distances",
]

#: Stack distance reported for cold (first-touch) accesses.
COLD = np.iinfo(np.int64).max

#: Sweeps of at least this many elements finish their last six position
#: bits with per-row bitmaps (:func:`_bitmap_finish`); smaller ones take
#: six more binary levels, since the scan's 64 steps cost a fixed time.
#: Measured on re-touch sweeps (2-vCPU x86-64, numpy 2.4, best of 41,
#: binary levels vs bitmap finish): 788 elements 0.33 vs 0.30 ms, 1,050
#: 0.47 vs 0.38 ms, 2,100 0.77 vs 0.55 ms, 48,301 14.5 vs 10.3 ms.
_BITMAP_MIN = 1 << 10


def _wavelet_level(v, nxt, shift, width, scratch):
    """One counting/partition level over ``v`` (2D: rows x width).

    For every element, adds the number of earlier same-row elements whose
    level bit is 0 while its own is 1 (packed into the element's low
    bits), then stable-partitions each row by the bit into ``nxt``.
    ``scratch`` provides three preallocated int32 buffers of v.size.
    """
    rows, _ = v.shape
    one, ones_cum, dest = (s[: v.size].reshape(v.shape) for s in scratch)
    np.bitwise_and(
        (v >> shift).astype(np.int32, copy=False), np.int32(1), out=one
    )
    np.cumsum(one, axis=1, dtype=np.int32, out=ones_cum)
    col = np.arange(width, dtype=np.int32)
    # zeros_before = col - ones_cum; contribution = (zeros_before + 1) for
    # elements with bit 1; destination = zeros_before for bit 0, or
    # (zeros_total + ones_before) for bit 1.
    np.subtract(col, ones_cum, out=dest)  # dest holds zeros_before
    contrib = np.add(dest, 1, out=np.empty_like(dest))
    np.multiply(contrib, one, out=contrib)
    vv = v + contrib  # upcasts to v's dtype
    zeros_total = width - ones_cum[:, -1:]
    np.subtract(ones_cum, dest, out=ones_cum)
    np.add(ones_cum, zeros_total - 1, out=ones_cum)
    np.multiply(ones_cum, one, out=ones_cum)
    np.add(dest, ones_cum, out=dest)
    base = (np.arange(rows, dtype=np.int32) * np.int32(width))[:, None]
    np.add(dest, base, out=dest)
    nxt.reshape(-1)[dest.ravel()] = vv.ravel()


def _dominance_counts(keys: np.ndarray, order: np.ndarray) -> np.ndarray:
    """``counts[i] = #{j < i : keys[j] <= keys[i]}`` (ties by position).

    ``order`` must be the stable argsort of ``keys``.  The counts are a
    2D dominance between the position order and the key order, resolved
    by a wavelet-style sweep over position bits: positions are split into
    chunks of ``C = 2^logC``; a first pass over chunk-id bits (elements
    read in key order) counts cross-chunk pairs and, as a side effect,
    groups elements by chunk; a second, fully rectangular pass over the
    low position bits counts within-chunk pairs.  Each element carries
    ``position << 32 | count`` packed in one int64 (an int32 analogue in
    the second pass), so every level is one cumsum, a few fused
    arithmetic passes, and one scatter; the final layout is the identity
    permutation, leaving each element's count at its own position.  On
    sweeps of at least :data:`_BITMAP_MIN` elements the second pass stops
    at rows of 64, and :func:`_bitmap_finish` counts the last six bits
    (all of them when chunks are narrower than 64) in one scan.
    """
    n = len(keys)
    if n < 2:
        return np.zeros(n, dtype=np.int64)
    logC = max(1, min(15, (n - 1).bit_length()))
    C = 1 << logC
    n_chunks = -(-n // C)
    m = n_chunks * C
    if m > n:
        # Sentinel elements: positions past the end, keys above everything
        # (appended at the end of the key order).  They keep every chunk
        # exactly C elements; their counts are sliced off at the end.
        order = np.concatenate([order, np.arange(n, m, dtype=order.dtype)])
    scratch = [np.empty(m, dtype=np.int32) for _ in range(3)]
    packed = order.astype(np.int64) << 32
    spare = np.empty_like(packed)
    # Pass 1: chunk-id bits (== position bits above logC), elements in key
    # order.  Segments are key-prefix classes: every chunk holds exactly C
    # elements, so all segments are full except the trailing one, which is
    # handled as a 1-row level of its own width.
    for b in range((n_chunks - 1).bit_length() - 1, -1, -1):
        width = C << (b + 1)
        shift = np.int64(32 + logC + b)
        rows = m // width
        mainlen = rows * width
        if rows:
            _wavelet_level(
                packed[:mainlen].reshape(rows, width),
                spare[:mainlen],
                shift,
                width,
                scratch,
            )
        if mainlen < m:
            _wavelet_level(
                packed[mainlen:].reshape(1, m - mainlen),
                spare[mainlen:],
                shift,
                m - mainlen,
                scratch,
            )
        packed, spare = spare, packed
    # Pass 1 grouped elements by chunk (stable in key order); drain its
    # counts, then re-pack per-chunk local positions into int32 words
    # (local position << logC | count; both fit in logC <= 15 bits).
    counts = np.empty(m, dtype=np.int64)
    counts[packed >> 32] = packed & 0xFFFFFFFF
    packed32 = (((packed >> 32) & (C - 1)) << logC).astype(np.int32)
    spare32 = np.empty_like(packed32)
    # Pass 2: low position bits.  Each chunk's low bits are a permutation
    # of [0, C), so every level is perfectly balanced and rectangular.  A
    # large sweep stops at rows of 64 and finishes them with bitmaps.
    w = min(logC, 6) if n >= _BITMAP_MIN else 0
    for b in range(logC - 1, w - 1, -1):
        width = 1 << (b + 1)
        _wavelet_level(
            packed32.reshape(-1, width), spare32, logC + b, width, scratch
        )
        packed32, spare32 = spare32, packed32
    if w:
        counts[:n] += _bitmap_finish(packed32, logC, w)[:n]
    else:
        counts[:n] += packed32[:n] & np.int32(C - 1)
    return counts[:n]


def _bitmap_finish(packed32: np.ndarray, logC: int, w: int) -> np.ndarray:
    """The sweep's last ``w`` position bits, one bitmap per row.

    ``packed32`` holds ``local position << logC | count`` words in rows of
    ``W = 2^w``; each row is one W-position block, in key order.  The
    ``w`` binary levels left would add to each element the number of
    earlier elements in its row with smaller low position bits.  A scan
    over the row's columns counts them instead: it sets the element's
    bit in the row's ``uint64`` mask of low bits seen so far, and takes
    the popcount of the mask below that bit.  Returns each element's
    finished count at its own position.
    """
    W = 1 << w
    rows = len(packed32) >> w
    low = ((packed32 >> logC) & (W - 1)).reshape(rows, W)
    # Column-major, so each step of the scan reads one contiguous row.
    bits = low.T.astype(np.uint64)
    np.left_shift(np.uint64(1), bits, out=bits)
    seen = np.zeros(rows, dtype=np.uint64)
    below = np.empty((W, rows), dtype=np.uint8)
    for col in range(W):
        seen |= bits[col]
        np.bitwise_count(seen & (bits[col] - np.uint64(1)), out=below[col])
    local = (packed32 & np.int32((1 << logC) - 1)).reshape(rows, W) + below.T
    out = np.empty(len(packed32), dtype=np.int32)
    out[(np.arange(rows, dtype=np.int32) << w)[:, None] + low] = local
    return out


def _prev_occurrence(lines: np.ndarray, regions: np.ndarray | None = None) -> np.ndarray:
    """Index of the previous access to the same line (-1 if none).

    With ``regions``, "same line" means same (region, line) pair, so each
    region's stream is chained independently.  The stream must then be
    grouped by region (each region's accesses contiguous, as
    :func:`_group_by_region` leaves them): the chain is built over
    (line, position) keys alone, and a link whose two ends lie in
    different regions is cut.

    The keys pack ``line - min`` above the position bits, so they are
    distinct and one quicksort orders them as a stable sort of lines
    would; when the line span is too wide to pack, a stable sort of the
    lines runs instead.
    """
    n = len(lines)
    prev = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return prev
    lo = int(lines.min())
    span = int(lines.max()) - lo + 1
    bits = (n - 1).bit_length()
    if span <= (1 << 62) >> bits:
        keys = lines.astype(np.int64)
        keys -= lo
        keys <<= bits
        keys |= np.arange(n, dtype=np.int64)
        keys.sort()
        order = keys & ((1 << bits) - 1)
        keys >>= bits
        same = keys[1:] == keys[:-1]
    else:
        order = np.argsort(lines, kind="stable")
        sl = lines[order]
        same = sl[1:] == sl[:-1]
    if regions is not None:
        sr = regions[order]
        same &= sr[1:] == sr[:-1]
    prev[order[1:][same]] = order[:-1][same]
    return prev


def _runs(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct values of a sorted array and the length of each run."""
    if len(values) == 0:
        return values[:0], np.zeros(0, dtype=np.int64)
    starts = np.flatnonzero(values[1:] != values[:-1]) + 1
    ends = np.append(starts, len(values))
    return values[ends - 1], np.diff(ends, prepend=0)


def _region_counts(regions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct region ids and their access counts, from one sort."""
    return _runs(np.sort(regions))


def _group_by_region(
    regions: np.ndarray, idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Positions ``idx`` grouped by region, in stream order within each.

    ``idx`` must ascend.  Returns ``(src, grouped)``: the positions in
    grouped order and their region ids.  The keys pack ``region - min``
    above the position bits, so they are distinct and one quicksort
    yields the stable sort's permutation; when the region span is too
    wide to pack, a stable sort runs instead.
    """
    r = regions[idx]
    if len(idx) == 0:
        return idx, r
    lo = int(r.min())
    span = int(r.max()) - lo + 1
    bits = int(idx[-1]).bit_length()
    if span > (1 << 62) >> bits:
        order = np.argsort(r, kind="stable")
        return idx[order], r[order]
    keys = r.astype(np.int64)
    keys -= lo
    keys <<= bits
    keys |= idx
    keys.sort()
    src = keys & ((1 << bits) - 1)
    keys >>= bits
    keys += lo
    return src, keys.astype(r.dtype)


def _distances_from_prev(prev: np.ndarray) -> np.ndarray:
    """Distances from a previous-occurrence array.

    ``prev`` may chain several segments (a region-grouped stream): each
    link stays inside its segment.  Only re-touches enter the sweep, keyed
    by their ``prev`` index.  Every earlier first touch counts toward a
    re-touch ``i`` with previous access ``p``: one in an earlier segment
    lies before ``p``'s segment start, and one in ``i``'s own segment
    lies before ``i``.  So if ``i`` is the ``k``-th re-touch and ``c_k``
    of the earlier re-touches have a smaller key, its distance is
    ``c_k + (i - k) - p - 1``.  Re-touch keys are distinct positions, so
    one scatter sorts them.
    """
    n = len(prev)
    out = np.full(n, COLD, dtype=np.int64)
    hot = np.flatnonzero(prev >= 0)
    if len(hot) == 0:
        return out
    keys = prev[hot]
    rank = np.full(n, -1, dtype=np.int64)
    rank[keys] = np.arange(len(hot), dtype=np.int64)
    counts = _dominance_counts(keys, rank[rank >= 0])
    counts += hot - np.arange(len(hot), dtype=np.int64)
    counts -= keys + 1
    out[hot] = counts
    return out


def stack_distances(lines: np.ndarray) -> np.ndarray:
    """Exact stack distances for a sequence of line addresses.

    Vectorized Mattson engine (see the module docstring); produces
    bit-identical output to the per-access Fenwick oracle.

    Args:
        lines: integer array of cache-line addresses, in access order.

    Returns:
        int64 array of the same length; cold misses get :data:`COLD`.
    """
    lines = np.ascontiguousarray(lines)
    return _distances_from_prev(_prev_occurrence(lines))


def miss_curve_from_distances(
    distances: np.ndarray,
    chunk_bytes: int,
    n_chunks: int,
    instructions: float,
    line_bytes: int = 64,
    scale: float = 1.0,
    distance_scale: float = 1.0,
) -> MissCurve:
    """Convert a stack-distance array into a :class:`MissCurve`.

    ``misses[i]`` counts accesses whose distance (in bytes, at
    ``line_bytes`` per distinct line) is >= ``i * chunk_bytes``, i.e. the
    misses of an ``i``-chunk LRU cache.  Cold misses count at every size.

    Args:
        distances: output of :func:`stack_distances` (line-granular).
        chunk_bytes: grid step of the resulting curve.
        n_chunks: number of grid steps.
        instructions: instruction count of the profiling window.
        line_bytes: bytes per cache line.
        scale: multiply counts (sampling correction).
        distance_scale: multiply distances (set-sampling correction: a
            distance observed on a 1/2^k-sampled address stream estimates
            a true distance 2^k times larger).
    """
    hist, n_cold, n_total = distance_bucket_counts(
        distances, chunk_bytes, n_chunks, line_bytes, distance_scale
    )
    return miss_curve_from_bucket_counts(
        hist, n_cold, n_total, chunk_bytes, n_chunks, instructions, scale
    )


def distance_bucket_counts(
    distances: np.ndarray,
    chunk_bytes: int,
    n_chunks: int,
    line_bytes: int = 64,
    distance_scale: float = 1.0,
) -> tuple[np.ndarray, int, int]:
    """Histogram distances into miss-curve size buckets.

    The additive half of :func:`miss_curve_from_distances`: bucket
    histograms are plain integer counts, so an out-of-core profiler can
    accumulate them chunk by chunk and finalize once with
    :func:`miss_curve_from_bucket_counts` — bit-identical to bucketing
    the concatenated distances in one call.

    Returns:
        ``(hist, n_cold, n_total)`` — int64 histogram of length
        ``n_chunks + 2`` over non-cold accesses, the cold-miss count,
        and the total access count.
    """
    distances = np.asarray(distances, dtype=np.float64)
    cold = distances >= float(COLD)
    buckets = _size_buckets(
        distances[~cold], chunk_bytes, n_chunks, line_bytes, distance_scale
    )
    hist = np.bincount(buckets, minlength=n_chunks + 2)
    return hist, int(np.count_nonzero(cold)), len(distances)


def _size_buckets(
    distances: np.ndarray,
    chunk_bytes: int,
    n_chunks: int,
    line_bytes: int,
    distance_scale: float,
) -> np.ndarray:
    """First hitting size bucket, in ``[1, n_chunks + 1]``, per distance.

    ``distances`` must hold no :data:`COLD` entry.
    """
    lines_per_chunk = chunk_bytes / line_bytes
    # An access with distance d misses at size i chunks iff
    # d >= i * lines_per_chunk; its "first hitting size" bucket is
    # floor(d / lines_per_chunk) + 1 == ceil((d + eps) / lines_per_chunk).
    # In place, so no step pays for a fresh array: the same operations,
    # on the same operands, as ceil(d * scale / lines_per_chunk + eps).
    scaled = np.multiply(distances, distance_scale, dtype=np.float64)
    scaled /= lines_per_chunk
    scaled += 1e-12
    buckets = np.ceil(scaled, out=scaled).astype(np.int64)
    return np.clip(buckets, 1, n_chunks + 1, out=buckets)


def miss_curve_from_bucket_counts(
    hist: np.ndarray,
    n_cold: int,
    n_accesses: int,
    chunk_bytes: int,
    n_chunks: int,
    instructions: float,
    scale: float = 1.0,
) -> MissCurve:
    """Finalize accumulated bucket counts into a :class:`MissCurve`.

    Args:
        hist: integer bucket histogram (length ``n_chunks + 2``), summed
            over any number of :func:`distance_bucket_counts` calls.
        n_cold: total cold misses.
        n_accesses: total profiled accesses (cold included).
        chunk_bytes / n_chunks / instructions / scale: as in
            :func:`miss_curve_from_distances`.
    """
    hist = np.asarray(hist).astype(np.float64)
    cum = np.cumsum(hist)
    total = cum[-1]
    # misses[i] = (# accesses whose bucket > i) + cold misses.
    misses = (total - cum[: n_chunks + 1]) + float(n_cold)
    return MissCurve(
        misses=misses * scale,
        chunk_bytes=chunk_bytes,
        accesses=float(n_accesses) * scale,
        instructions=instructions,
    )


class IntervalBucketAccumulator:
    """Grow-able per-interval bucket-count accumulation for one stream.

    The additive integer state behind the out-of-core and online
    profiling engines: per profiling interval, a distance-bucket
    histogram (:func:`distance_bucket_counts`), cold/sampled counters,
    and the unsampled access count.  Because every field is a plain
    integer count, accumulation commutes — chunks can arrive in any
    split — and new interval rows can be *appended* while earlier ones
    keep accumulating, which is what lets an online profiler open
    epochs as data arrives instead of fixing the interval grid up
    front.  :meth:`interval_curve` finalizes one interval through
    :func:`miss_curve_from_bucket_counts` plus the engines' shared
    unsampled-access rescale, bit-identical to bucketing that
    interval's distances in a single call.
    """

    def __init__(self, n_chunks: int, n_intervals: int = 0) -> None:
        if n_chunks < 0:
            raise ValueError(f"n_chunks must be >= 0, got {n_chunks}")
        if n_intervals < 0:
            raise ValueError(f"n_intervals must be >= 0, got {n_intervals}")
        self.n_chunks = n_chunks
        self.hist = np.zeros((n_intervals, n_chunks + 2), dtype=np.int64)
        self.cold = np.zeros(n_intervals, dtype=np.int64)
        self.sampled = np.zeros(n_intervals, dtype=np.int64)
        self.accesses = np.zeros(n_intervals, dtype=np.int64)

    @property
    def n_intervals(self) -> int:
        """Interval rows currently open."""
        return len(self.cold)

    def ensure_intervals(self, n_intervals: int) -> None:
        """Grow (never shrink) to ``n_intervals`` zero-initialized rows."""
        grow = n_intervals - self.n_intervals
        if grow <= 0:
            return
        self.hist = np.vstack(
            [self.hist, np.zeros((grow, self.n_chunks + 2), dtype=np.int64)]
        )
        zeros = np.zeros(grow, dtype=np.int64)
        self.cold = np.concatenate([self.cold, zeros])
        self.sampled = np.concatenate([self.sampled, zeros])
        self.accesses = np.concatenate([self.accesses, zeros])

    def add_accesses(self, interval: int, count: int) -> None:
        """Count ``count`` unsampled accesses into ``interval``."""
        self.accesses[interval] += count

    def add_distances(
        self,
        interval: int,
        distances: np.ndarray,
        chunk_bytes: int,
        line_bytes: int = 64,
        distance_scale: float = 1.0,
    ) -> None:
        """Bucket one batch of sampled distances into ``interval``."""
        h, n_cold, n_acc = distance_bucket_counts(
            distances,
            chunk_bytes,
            self.n_chunks,
            line_bytes,
            distance_scale=distance_scale,
        )
        self.hist[interval] += h
        self.cold[interval] += n_cold
        self.sampled[interval] += n_acc

    def interval_curve(
        self,
        interval: int,
        chunk_bytes: int,
        instructions: float,
        scale: float = 1.0,
    ) -> MissCurve:
        """Finalize one interval's counts into a :class:`MissCurve`.

        Shares the float pipeline (and the exact operation order) of
        :class:`StackDistanceProfiler.profile`: bucket counts finalize
        through :func:`miss_curve_from_bucket_counts`, then the access
        count is rescaled to the true unsampled count so APKI stays
        exact under address sampling.  Intervals with no sampled access
        degrade to the flat all-miss curve, exactly like the in-memory
        engine.
        """
        n_acc = int(self.accesses[interval])
        n_samp = int(self.sampled[interval])
        if n_samp > 0:
            curve = miss_curve_from_bucket_counts(
                self.hist[interval],
                int(self.cold[interval]),
                n_samp,
                chunk_bytes,
                self.n_chunks,
                instructions,
                scale=scale,
            )
            # Same unsampled-access rescale as the in-memory engine, in
            # the same operation order.
            ratio = n_acc / curve.accesses
            return MissCurve(
                misses=curve.misses * ratio,
                chunk_bytes=curve.chunk_bytes,
                accesses=float(n_acc),
                instructions=curve.instructions,
            )
        return MissCurve(
            misses=np.full(self.n_chunks + 1, float(n_acc)),
            chunk_bytes=chunk_bytes,
            accesses=float(n_acc),
            instructions=instructions,
        )


class StackDistanceProfiler:
    """Profiles a trace into per-region, per-interval miss-rate curves.

    This plays the role of Jigsaw's GMON utility monitors and of the
    WhirlTool profiler: it observes a stream of (line address, region id)
    pairs, split into fixed-length intervals, and produces a
    :class:`MissCurve` per (region, interval).

    Address sampling: with ``sample_shift = k``, only lines whose hash
    falls in 1/2^k of the hash space are profiled, and counts are scaled
    by 2^k.  This mirrors set-sampled hardware monitors (UMON/GMON) and
    keeps profiling fast on long traces.  ``sample_shift = 0`` is exact.

    :meth:`profile` makes a single vectorized pass over the whole trace:
    one sample mask, one grouping of the sampled accesses by region, one
    previous-occurrence chain over (line, position) keys, and one
    dominance-counting sweep produce every region's distances at once;
    one histogram over (region, interval, size bucket) cells and one
    cumulative sum then give every curve.  Unsampled access counts are
    the run lengths of each interval's sorted region ids.
    """

    def __init__(
        self,
        chunk_bytes: int,
        n_chunks: int,
        line_bytes: int = 64,
        sample_shift: int = 0,
    ) -> None:
        if sample_shift < 0:
            raise ValueError(f"sample_shift must be >= 0, got {sample_shift}")
        self.chunk_bytes = chunk_bytes
        self.n_chunks = n_chunks
        self.line_bytes = line_bytes
        self.sample_shift = sample_shift

    # A multiplicative hash keeps sampled lines spread across the space
    # even for strided address streams.
    _HASH_MULT = np.uint64(0x9E3779B97F4A7C15)

    def _sample_mask(self, lines: np.ndarray) -> np.ndarray:
        if self.sample_shift == 0:
            return np.ones(len(lines), dtype=bool)
        # The hash's top ``sample_shift`` bits are zero exactly when the
        # product is below 2^(64 - shift).
        words = np.asarray(lines, dtype=np.int64).view(np.uint64)
        return words * self._HASH_MULT < np.uint64(1 << (64 - self.sample_shift))

    def profile(
        self,
        lines: np.ndarray,
        regions: np.ndarray,
        instructions: float,
        n_intervals: int = 1,
    ) -> dict[int, list[MissCurve]]:
        """Profile a trace.

        Distances are computed over each region's *own* access stream for
        the whole trace (monitors are per-VC), then counts are split into
        ``n_intervals`` equal access-index windows.

        Args:
            lines: line addresses in access order.
            regions: region id per access (same length as ``lines``).
            instructions: total instructions over the trace.
            n_intervals: number of equal time windows.

        Returns:
            Mapping ``region id -> [MissCurve, ...]`` (one per interval).
        """
        lines = np.asarray(lines)
        regions = np.asarray(regions)
        if len(lines) != len(regions):
            raise ValueError("lines and regions must have equal length")
        n = len(lines)
        scale = float(1 << self.sample_shift)
        instr_per_interval = instructions / n_intervals
        bounds = np.linspace(0, n, n_intervals + 1).astype(np.int64)

        # Unsampled per-(region, interval) access counts, for exact APKI:
        # the run lengths of each interval's sorted region ids.
        runs = [
            _region_counts(regions[bounds[t] : bounds[t + 1]])
            for t in range(n_intervals)
        ]
        region_ids = np.unique(np.concatenate([ids for ids, __ in runs]))
        acc_counts = np.zeros((len(region_ids), n_intervals), dtype=np.int64)
        for t, (ids, counts) in enumerate(runs):
            acc_counts[np.searchsorted(region_ids, ids), t] = counts

        # One pass for every region: group the sampled accesses by region
        # (each segment stays in stream order), chain previous
        # occurrences within each segment, and resolve all distances in a
        # single dominance-counting sweep.
        g_src, g_regions = _group_by_region(
            regions, np.flatnonzero(self._sample_mask(lines))
        )
        prev = _prev_occurrence(np.ascontiguousarray(lines[g_src]), g_regions)
        dist = _distances_from_prev(prev)

        # One histogram over (region, interval, bucket) cells: a re-touch
        # counts in its first hitting size bucket, a first touch in one
        # slot past the n_chunks + 2 buckets.  The right-side lookup puts
        # an access on a repeated bound in the one non-empty interval.
        k = self.n_chunks
        n_regions = len(region_ids)
        hot = prev >= 0
        bucket = np.full(len(prev), k + 2, dtype=np.int64)
        bucket[hot] = _size_buckets(
            dist[hot], self.chunk_bytes, k, self.line_bytes, scale
        )
        seg_ends = np.searchsorted(g_regions, region_ids, side="right")
        cell = np.repeat(
            np.arange(n_regions, dtype=np.int64) * n_intervals,
            np.diff(seg_ends, prepend=0),
        )
        cell += np.searchsorted(bounds, g_src, side="right") - 1
        cell *= k + 3
        cell += bucket
        cells = np.bincount(cell, minlength=n_regions * n_intervals * (k + 3))
        cells = cells.reshape(n_regions, n_intervals, k + 3)

        # Each cell finalizes as miss_curve_from_bucket_counts does, then
        # rescales its access count to the true (unsampled) count so APKI
        # is exact even when miss counts are approximate.  A cell with no
        # sampled access is the flat all-miss curve.
        sampled = cells.sum(axis=2)
        empty = sampled == 0
        n_cold = cells[..., k + 2 :].astype(np.float64)
        cum = np.cumsum(cells[..., : k + 2], axis=2, dtype=np.float64)
        misses = (cum[..., -1:] - cum[..., : k + 1]) + n_cold
        ratio = acc_counts / np.where(empty, 1.0, sampled * scale)
        misses = (misses * scale) * ratio[..., None]
        misses[empty] = acc_counts[empty, None]

        acc = acc_counts.tolist()
        return {
            rid: [
                MissCurve(
                    misses=misses[r, t],
                    chunk_bytes=self.chunk_bytes,
                    accesses=float(acc[r][t]),
                    instructions=instr_per_interval,
                )
                for t in range(n_intervals)
            ]
            for r, rid in enumerate(region_ids.tolist())
        }

    def profile_combined(
        self, lines: np.ndarray, instructions: float, n_intervals: int = 1
    ) -> list[MissCurve]:
        """Profile the whole trace as a single region (S-NUCA's view)."""
        regions = np.zeros(len(lines), dtype=np.int32)
        return self.profile(lines, regions, instructions, n_intervals)[0]
