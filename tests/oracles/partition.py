"""The chunk-at-a-time partitioner and the monotone-chain hull it runs on.

The oracles for ``repro.curves.partition``: ``partition_cost_curves``
(one sort of every consumer's gains), ``partitioned_miss_curve`` (one
row of ``partitioned_rate_rows``) and, one layer down,
``_lower_convex_hull_fast`` must match them bit for bit.
"""

import heapq

import numpy as np

from repro.curves.miss_curve import MissCurve


def _lower_convex_hull(values: np.ndarray) -> np.ndarray:
    """Lower convex hull of ``values`` sampled at integer x positions.

    Monotone-chain over the points (i, values[i]); returns the hull
    re-sampled back onto every integer position (piecewise-linear).
    The oracle for ``repro.curves.miss_curve._lower_convex_hull_fast``.
    """
    n = len(values)
    if n <= 2:
        return values.astype(np.float64).copy()
    # Hull vertex stack: indices into `values`.
    stack: list[int] = []
    for i in range(n):
        while len(stack) >= 2:
            i0, i1 = stack[-2], stack[-1]
            # Keep i1 only if it lies strictly below segment (i0 -> i).
            lhs = (values[i1] - values[i0]) * (i - i0)
            rhs = (values[i] - values[i0]) * (i1 - i0)
            if lhs >= rhs:  # i1 is on/above the chord: drop it
                stack.pop()
            else:
                break
        stack.append(i)
    xs = np.asarray(stack, dtype=np.float64)
    ys = values[stack].astype(np.float64)
    return np.interp(np.arange(n, dtype=np.float64), xs, ys)


def _merge_gains_heapq(hulls: list[np.ndarray], total_chunks: int) -> list[int]:
    """Chunk-at-a-time greedy over per-consumer hulls (the oracle merge)."""
    sizes = [0] * len(hulls)
    # Max-heap of (negative marginal gain, consumer, next size).
    heap: list[tuple[float, int, int]] = []
    for k, hull in enumerate(hulls):
        if len(hull) > 1:
            gain = hull[0] - hull[1]
            heapq.heappush(heap, (-gain, k, 1))
    remaining = total_chunks
    while remaining > 0 and heap:
        neg_gain, k, nxt = heapq.heappop(heap)
        if -neg_gain <= 0.0:
            break  # no curve benefits from more capacity
        sizes[k] = nxt
        remaining -= 1
        hull = hulls[k]
        if nxt + 1 < len(hull):
            gain = hull[nxt] - hull[nxt + 1]
            heapq.heappush(heap, (-gain, k, nxt + 1))
    return sizes


def partition_cost_curves_reference(
    cost_curves: list[np.ndarray], total_chunks: int
) -> tuple[list[int], float]:
    """The pre-vectorization allocator (per-curve hulls + heapq greedy).

    The oracle for :func:`repro.curves.partition.partition_cost_curves`;
    same contract, no input validation.
    """
    hulls = [_lower_convex_hull(np.asarray(c, dtype=np.float64)) for c in cost_curves]
    sizes = _merge_gains_heapq(hulls, total_chunks)
    total_cost = sum(float(h[s]) for h, s in zip(hulls, sizes))
    return sizes, total_cost


def partitioned_miss_curve_reference(a: MissCurve, b: MissCurve) -> MissCurve:
    """Miss curve of two pools under *optimal partitioning* (paper Sec 4.2).

    ``result.misses[S]`` is the minimum total misses achievable by
    splitting ``S`` chunks between the two pools (using each pool's convex
    hull).  This lower-bounds the combined (shared) curve; the gap between
    the two is WhirlTool's distance metric.

    Normalization matches :func:`repro.curves.combine.combine_miss_curves`
    so the two curves can be subtracted directly.  This is the serial
    merged-gains scan, the oracle for
    :func:`repro.curves.partition.partitioned_miss_curve` (one row of
    ``partitioned_rate_rows``).
    """
    if a.chunk_bytes != b.chunk_bytes:
        raise ValueError("curves must share chunk_bytes")
    n = max(a.n_chunks, b.n_chunks)
    ca = a.extended(n) if a.n_chunks < n else a
    cb = b.extended(n) if b.n_chunks < n else b
    instructions = max(a.instructions, b.instructions)
    ra = _lower_convex_hull(ca.misses / max(a.instructions, 1e-12))
    rb = _lower_convex_hull(cb.misses / max(b.instructions, 1e-12))
    gains_a = -np.diff(ra)
    gains_b = -np.diff(rb)
    merged = np.sort(np.concatenate([gains_a, gains_b]))[::-1]
    # Best total rate at S chunks = floor rate - sum of the S best gains,
    # clipped at the number of useful chunks.
    best = np.empty(n + 1, dtype=np.float64)
    best[0] = ra[0] + rb[0]
    cum = np.cumsum(merged[:n]) if n > 0 else np.array([])
    best[1:] = best[0] - cum
    floor = ra[-1] + rb[-1]
    np.clip(best, floor, None, out=best)
    return MissCurve(
        misses=best * instructions,
        chunk_bytes=a.chunk_bytes,
        accesses=a.accesses + b.accesses,
        instructions=instructions,
    )
