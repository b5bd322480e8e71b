"""Capacity partitioning over (convex hulls of) cost curves.

Jigsaw sizes VCs by partitioning cache capacity to minimize total latency;
WhirlTool's distance metric needs the *partitioned* miss curve of two
pools (the misses when capacity is split optimally between them, paper
Sec 4.2).  Both reduce to the same primitive: given per-consumer convex
cost-vs-size curves, hand out capacity chunks in order of marginal gain.

On convex curves the greedy is optimal; we always take convex hulls first,
which the paper justifies via Talus-style intra-VC partitioning.

Two vectorized kernels implement the greedy:

- :func:`partition_cost_curves` — the allocator: batched convex hulls,
  then one global sort of every consumer's marginal-gain segments (each
  hull's gains are non-increasing, so a k-way merge of the per-consumer
  streams *is* a global descending sort) and a single ``bincount`` to
  turn the selected gains into sizes.
- :func:`partitioned_rate_rows` — the two-consumer optimal split for a
  batch of pairs, one row-wise sort of merged gains per pair; WhirlTool's
  clustering runs it, and :func:`partitioned_miss_curve` is one row of it.

The chunk-at-a-time ``heapq`` greedy and the serial merged-gains scan
they replaced are the oracles in ``tests/oracles/partition.py``: the
property tests pin both kernels bit-identical to them, and the
perf-smoke benchmark gates CI on the allocator's speedup.
"""

from __future__ import annotations

import numpy as np

from repro.curves.miss_curve import (
    MissCurve,
    _first_minimum,
    _lower_convex_hull_fast,
    _pair_curve,
    _pair_rates,
)

__all__ = [
    "partition_capacity",
    "partition_cost_curves",
    "partitioned_miss_curve",
    "partitioned_rate_rows",
]


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
        is bit-identical to the serial merged-gains scan
        (``partitioned_miss_curve_reference`` in
        ``tests/oracles/partition.py``): one row-wise sort of the merged
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


def partitioned_miss_curve(a: MissCurve, b: MissCurve) -> MissCurve:
    """Miss curve of two pools under *optimal partitioning* (paper Sec 4.2).

    ``result.misses[S]`` is the minimum total misses achievable by
    splitting ``S`` chunks between the two pools (using each pool's convex
    hull).  This lower-bounds the combined (shared) curve; the gap between
    the two is WhirlTool's distance metric.

    Normalization matches :func:`repro.curves.combine.combine_miss_curves`
    so the two curves can be subtracted directly.  One row of
    :func:`partitioned_rate_rows` over the pair's rate hulls.
    """
    ra, rb = _pair_rates(a, b)
    best = partitioned_rate_rows(
        _lower_convex_hull_fast(ra)[None], _lower_convex_hull_fast(rb)[None]
    )
    return _pair_curve(best[0], a, b)
