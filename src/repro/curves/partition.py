"""Capacity partitioning over (convex hulls of) cost curves.

Jigsaw sizes VCs by partitioning cache capacity to minimize total latency;
WhirlTool's distance metric needs the *partitioned* miss curve of two
pools (the misses when capacity is split optimally between them, paper
Sec 4.2).  Both reduce to the same primitive: given per-consumer convex
cost-vs-size curves, hand out capacity chunks in order of marginal gain.

On convex curves the greedy is optimal; we always take convex hulls first,
which the paper justifies via Talus-style intra-VC partitioning.

Two interchangeable engines implement the greedy:

- :func:`partition_cost_curves` — the vectorized allocator: batched
  convex hulls, then one global sort of every consumer's marginal-gain
  segments (each hull's gains are non-increasing, so a k-way merge of
  the per-consumer streams *is* a global descending sort) and a single
  ``bincount`` to turn the selected gains into sizes.
- :func:`partition_cost_curves_reference` — the original chunk-at-a-time
  ``heapq`` greedy, retained as the oracle: the property tests pin the
  vectorized engine bit-identical to it, and the perf-smoke benchmark
  gates CI on the speedup.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.curves.miss_curve import (
    MissCurve,
    _first_minimum,
    _lower_convex_hull,
    _lower_convex_hull_fast,
    map_pair_batches,
)

__all__ = [
    "partition_capacity",
    "partition_cost_curves",
    "partition_cost_curves_reference",
    "partitioned_miss_curve",
    "partitioned_miss_curve_batch",
    "partitioned_rate_rows",
]


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

    Kept as the differential-testing oracle for
    :func:`partition_cost_curves`; same contract, no input validation.
    """
    hulls = [_lower_convex_hull(np.asarray(c, dtype=np.float64)) for c in cost_curves]
    sizes = _merge_gains_heapq(hulls, total_chunks)
    total_cost = sum(float(h[s]) for h, s in zip(hulls, sizes))
    return sizes, total_cost


def partition_cost_curves(
    cost_curves: list[np.ndarray], total_chunks: int
) -> tuple[list[int], float]:
    """Split ``total_chunks`` among consumers to minimize total cost.

    Args:
        cost_curves: one cost-vs-size array per consumer (index = chunks,
            value = cost at that size).  Each is convex-hulled internally.
            Must be non-empty, and every curve needs at least two points
            (a single point has no size axis to allocate along).
        total_chunks: capacity to distribute; must be positive.

    Returns:
        ``(sizes, total_cost)`` — chunks given to each consumer (summing to
        at most ``total_chunks``; capacity beyond every curve's saturation
        point is left unallocated) and the resulting total cost.

    Raises:
        ValueError: on an empty curve list, non-positive ``total_chunks``,
            a curve with fewer than two points, or a NaN or infinite cost.
    """
    if not len(cost_curves):
        raise ValueError("cost_curves must not be empty")
    if total_chunks <= 0:
        raise ValueError(f"total_chunks must be positive, got {total_chunks}")
    arrays = []
    for k, curve in enumerate(cost_curves):
        arr = np.asarray(curve, dtype=np.float64)
        if arr.ndim != 1 or len(arr) < 2:
            raise ValueError(
                f"cost curve {k} must be 1-D with at least 2 points, "
                f"got shape {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise ValueError(f"cost curve {k} must be finite (no NaN or inf)")
        arrays.append(arr)
    # Hull each curve only up to its first minimum m: hull gains past m
    # are <= 0 (never taken; dropping them keeps the stable order of the
    # rest), and hull values on [0, m] use only vertices <= m (m is one).
    hulls = [_lower_convex_hull_fast(a[: _first_minimum(a) + 1]) for a in arrays]
    # Marginal gain of each consumer's next chunk.  Convexity makes every
    # stream non-increasing mathematically, but hull re-interpolation can
    # break that by an ulp; the running minimum restores it *and* keeps
    # the global sort exactly equivalent to the chunk-at-a-time heap
    # greedy: a gain sitting behind a smaller predecessor only reaches
    # the heap's frontier once the predecessor is taken, i.e. it
    # effectively inherits the prefix minimum as its priority.
    gains = [np.minimum.accumulate(h[:-1] - h[1:]) for h in hulls]
    neg = -np.concatenate(gains)
    owner = np.repeat(np.arange(len(hulls)), [g.size for g in gains])
    # Stable sort on descending gain: ties keep concatenation order,
    # which is exactly the heap's (gain, consumer, size) tie-break —
    # lower consumer index first, then smaller size.  The greedy stops
    # at the first non-positive gain, so only the strictly-positive
    # prefix is allocatable.
    order = np.argsort(neg, kind="stable")
    useful = int(np.searchsorted(neg[order], 0.0, side="left"))
    chosen = order[: min(useful, total_chunks)]
    counts = np.bincount(owner[chosen], minlength=len(hulls))
    sizes = [int(c) for c in counts]
    total_cost = sum(float(h[s]) for h, s in zip(hulls, sizes))
    return sizes, total_cost


def partition_capacity(
    curves: list[MissCurve], total_bytes: float
) -> tuple[list[int], float]:
    """Partition ``total_bytes`` among miss curves to minimize total misses.

    Counts are normalized to rates (misses per instruction) so that curves
    profiled over different windows are comparable.

    Returns:
        ``(sizes_bytes, total_miss_rate)``.
    """
    if not curves:
        return [], 0.0
    chunk = curves[0].chunk_bytes
    if any(c.chunk_bytes != chunk for c in curves):
        raise ValueError("all curves must share chunk_bytes")
    cost = [c.misses / max(c.instructions, 1e-12) for c in curves]
    total_chunks = int(total_bytes // chunk)
    if total_chunks <= 0:
        # No whole chunk to hand out: everyone sits at their size-0 cost.
        return [0] * len(curves), sum(float(c[0]) for c in cost)
    sizes, total_cost = partition_cost_curves(cost, total_chunks)
    return [s * chunk for s in sizes], total_cost


def partitioned_rate_rows(
    hulls_a: np.ndarray, hulls_b: np.ndarray
) -> np.ndarray:
    """Optimal-split cost rows for ``B`` pairs of convex-hull rows.

    Args:
        hulls_a, hulls_b: ``(B, n + 1)`` lower-convex-hull rows (rates on
            the size grid), one pair per row.

    Returns:
        ``(B, n + 1)`` rows where ``row[S]`` is the minimum total rate
        from splitting ``S`` chunks between the pair's hulls.  Each row
        is bit-identical to the serial merged-gains scan in
        :func:`partitioned_miss_curve`: one row-wise sort of the merged
        marginal gains and one cumsum per pair, clipped at the pair's
        floor rate.
    """
    hulls_a = np.ascontiguousarray(hulls_a, dtype=np.float64)
    hulls_b = np.ascontiguousarray(hulls_b, dtype=np.float64)
    if hulls_a.shape != hulls_b.shape or hulls_a.ndim != 2:
        raise ValueError(
            f"hull rows must share a (B, n+1) shape, got "
            f"{hulls_a.shape} vs {hulls_b.shape}"
        )
    batch, width = hulls_a.shape
    n = width - 1
    best = np.empty((batch, width), dtype=np.float64)
    best[:, 0] = hulls_a[:, 0] + hulls_b[:, 0]
    if n > 0:
        gains = np.concatenate(
            [
                hulls_a[:, :-1] - hulls_a[:, 1:],
                hulls_b[:, :-1] - hulls_b[:, 1:],
            ],
            axis=1,
        )
        merged = np.sort(gains, axis=1)[:, ::-1]
        cum = np.cumsum(merged[:, :n], axis=1)
        best[:, 1:] = best[:, :1] - cum
    floor = hulls_a[:, -1] + hulls_b[:, -1]
    np.clip(best, floor[:, None], None, out=best)
    return best


def partitioned_miss_curve_batch(
    pairs: list[tuple[MissCurve, MissCurve]],
) -> list[MissCurve]:
    """Run ``B`` optimal-split curves at once; bit-identical to the oracle.

    Pairs are grouped by their common grid; within a group each distinct
    curve's rate hull is primed once with the run-skipping monotone-chain
    hull (``_lower_convex_hull_fast``, bit-identical to the reference
    scan) and reused across every pair it appears in, then one
    :func:`partitioned_rate_rows` call covers the whole group.  Results
    equal ``partitioned_miss_curve(a, b)`` exactly.
    """
    return map_pair_batches(pairs, _partitioned_group_rows)


def _partitioned_group_rows(
    group: list[tuple[MissCurve, MissCurve]], n: int
) -> np.ndarray:
    """One group's optimal-split rows for :func:`map_pair_batches`.

    Hull priming: one hull per distinct curve in the group, not per
    pair, so a curve appearing in many pairs is hulled once.
    """
    hull_cache: dict[int, np.ndarray] = {}

    def rate_hull(c: MissCurve) -> np.ndarray:
        cached = hull_cache.get(id(c))
        if cached is None:
            ext = c.extended(n) if c.n_chunks < n else c
            cached = _lower_convex_hull_fast(
                ext.misses / max(c.instructions, 1e-12)
            )
            hull_cache[id(c)] = cached
        return cached

    rows_a = np.stack([rate_hull(a) for a, __ in group])
    rows_b = np.stack([rate_hull(b) for __, b in group])
    return partitioned_rate_rows(rows_a, rows_b)


def partitioned_miss_curve(a: MissCurve, b: MissCurve) -> MissCurve:
    """Miss curve of two pools under *optimal partitioning* (paper Sec 4.2).

    ``result.misses[S]`` is the minimum total misses achievable by
    splitting ``S`` chunks between the two pools (using each pool's convex
    hull).  This lower-bounds the combined (shared) curve; the gap between
    the two is WhirlTool's distance metric.

    Normalization matches :func:`repro.curves.combine.combine_miss_curves`
    so the two curves can be subtracted directly.
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
