"""The Appendix-B combined miss-curve model (paper Listing 1).

Estimates the miss curve of two access streams *sharing* an unpartitioned
LRU cache from their individual miss curves, using the "flow" argument:
lines are pushed toward LRU at a rate equal to the local miss rate, so when
two streams merge, each stream's read head advances in proportion to its
share of the combined flow.

The model is commutative, associative (up to grid interpolation error),
and idempotent on self-similar splits — properties exercised by the unit
and property tests, and shown in Fig 23.

Like the profiler and the partitioner one layer down, the module is
organized as a batched engine plus retained serial oracles:

- :func:`combine_rate_rows` — the batched kernel.  The read-head
  recurrence is inherently sequential over the ``n + 1`` grid steps, but
  each step's interpolation and flow split vectorizes across the batch
  axis, so ``B`` pair-combines cost one pass of length-``B`` array ops
  per step instead of ``B`` python loops.
- :func:`advance_flow_heads` — the K-way head-advance kernel shared with
  S-NUCA's shared-cache accounting: all ``K × B`` read heads move as one
  array per capacity step, with an all-flows-zero early exit.
- :func:`combine_miss_curves_batch` / :func:`shared_cache_misses` — the
  :class:`MissCurve`-level consumers of those kernels.
- :func:`combine_miss_curves` / :func:`shared_cache_misses_reference` —
  the original scalar loops, retained as differential-testing oracles;
  the Hypothesis suites pin the batched paths bit-identical to them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.curves.miss_curve import (
    MissCurve,
    _row_reader,
    interp_rows,
    map_pair_batches,
)

__all__ = [
    "advance_flow_heads",
    "combine_many",
    "combine_miss_curves",
    "combine_miss_curves_batch",
    "combine_rate_rows",
    "shared_cache_misses",
    "shared_cache_misses_reference",
]


def _read(curve: np.ndarray, pos: float) -> float:
    """Linearly interpolate ``curve`` at fractional index ``pos``."""
    n = len(curve) - 1
    if pos >= n:
        return float(curve[n])
    lo = int(pos)
    frac = pos - lo
    return float(curve[lo] * (1 - frac) + curve[lo + 1] * frac)


def combine_miss_curves(a: MissCurve, b: MissCurve) -> MissCurve:
    """Combined miss curve of two pools sharing one cache (Listing 1).

    Both inputs must share the same grid.  The result is on the same grid;
    sizes past the sum of the two working sets saturate at the sum of the
    inputs' floor miss rates.

    This is the scalar per-grid-step loop, retained as the oracle for
    :func:`combine_miss_curves_batch` (which is bit-identical to it).
    """
    if a.chunk_bytes != b.chunk_bytes:
        raise ValueError("curves must share chunk_bytes")
    n = max(a.n_chunks, b.n_chunks)
    m1 = a.extended(n).misses if a.n_chunks < n else a.misses
    m2 = b.extended(n).misses if b.n_chunks < n else b.misses

    # Rates must be comparable: normalize each curve to misses per
    # instruction so pools profiled over different windows combine sanely.
    r1 = m1 / max(a.instructions, 1e-12)
    r2 = m2 / max(b.instructions, 1e-12)
    instructions = max(a.instructions, b.instructions)

    out = np.empty(n + 1, dtype=np.float64)
    s1 = 0.0
    s2 = 0.0
    for s in range(n + 1):
        f1 = _read(r1, s1)
        f2 = _read(r2, s2)
        f = f1 + f2
        out[s] = f
        if f > 0:
            s1 += f1 / f
            s2 += f2 / f
        # If the combined flow is zero both streams have stopped missing;
        # the read heads stay put and the curve stays at zero.
    return MissCurve(
        misses=out * instructions,
        chunk_bytes=a.chunk_bytes,
        accesses=a.accesses + b.accesses,
        instructions=instructions,
    )


def combine_rate_rows(r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Batched Listing-1 recurrence over per-instruction rate rows.

    Args:
        r1, r2: ``(B, n + 1)`` rate rows (misses per instruction on the
            size grid), one pair-combine per row.

    Returns:
        ``(B, n + 1)`` combined rate rows.  Each row is bit-identical to
        the scalar loop in :func:`combine_miss_curves` on the same pair:
        the per-step interpolation, flow sum, and head split are the same
        IEEE expressions evaluated elementwise across the batch.
    """
    r1 = np.ascontiguousarray(r1, dtype=np.float64)
    r2 = np.ascontiguousarray(r2, dtype=np.float64)
    if r1.shape != r2.shape or r1.ndim != 2:
        raise ValueError(f"rate rows must share a (B, n+1) shape, got {r1.shape} vs {r2.shape}")
    batch, width = r1.shape
    out = np.empty((batch, width), dtype=np.float64)
    # Both operands' rows in one matrix, so each step reads all 2B heads
    # (row 0 of `heads` is s1, row 1 is s2) with a single gather.
    read = _row_reader(np.concatenate([r1, r2]))
    heads = np.zeros((2, batch))
    for s in range(width):
        flows = read(heads.reshape(-1)).reshape(2, batch)
        f = flows[0] + flows[1]
        out[:, s] = f
        flowing = f > 0.0
        if not flowing.any():
            # Every lane's flow has stopped: the heads are frozen, so all
            # later steps would recompute exactly `f` again — fill and stop.
            out[:, s + 1 :] = f[:, None]
            break
        safe = np.where(flowing, f, 1.0)
        heads = heads + np.where(flowing, flows / safe, 0.0)
    return out


def _combined_group_rows(
    group: list[tuple[MissCurve, MissCurve]], n: int
) -> np.ndarray:
    """One group's combined rate rows for :func:`map_pair_batches`."""
    rows1 = np.empty((len(group), n + 1))
    rows2 = np.empty((len(group), n + 1))
    for row, (a, b) in enumerate(group):
        m1 = a.extended(n).misses if a.n_chunks < n else a.misses
        m2 = b.extended(n).misses if b.n_chunks < n else b.misses
        rows1[row] = m1 / max(a.instructions, 1e-12)
        rows2[row] = m2 / max(b.instructions, 1e-12)
    return combine_rate_rows(rows1, rows2)


def combine_miss_curves_batch(
    pairs: Sequence[tuple[MissCurve, MissCurve]],
) -> list[MissCurve]:
    """Run ``B`` pair-combines at once; bit-identical to the serial oracle.

    Pairs are grouped by their common grid length (``max(n_chunks)`` per
    pair, matching the serial extension rule) and each group runs through
    :func:`combine_rate_rows` in one batch.  Results come back in input
    order and equal ``combine_miss_curves(a, b)`` exactly — misses,
    accesses, and instructions.
    """
    return map_pair_batches(pairs, _combined_group_rows)


def advance_flow_heads(
    rates_flat: np.ndarray, included: np.ndarray, steps: int
) -> np.ndarray:
    """Advance ``K × B`` shared-cache read heads for ``steps`` chunks.

    The K-way generalization of Listing 1's inner loop, vectorized so
    every read head of a whole batch moves in one gather per capacity
    step.  Used by :func:`shared_cache_misses` (``B = 1``) and by
    S-NUCA's interval-batched accounting (``B`` = intervals).

    Args:
        rates_flat: ``(K * B, n + 1)`` rate rows, stream-major (stream
            ``k`` of lane ``b`` at row ``k * B + b``).
        included: ``(K, B)`` mask; excluded streams contribute exactly
            ``0.0`` flow, which keeps the float sums bit-identical to a
            serial evaluation of each lane's included subset.
        steps: capacity chunks to hand out.

    Returns:
        ``(K * B,)`` final head positions.  Lanes whose total flow hits
        zero freeze (all-flows-zero early exit once every lane is done).
    """
    n_streams, batch = included.shape
    heads = np.zeros(n_streams * batch)
    active = included.any(axis=0)
    read = _row_reader(rates_flat)
    for __ in range(int(steps)):
        if not active.any():
            break
        flows = read(heads).reshape(n_streams, batch)
        flows = np.where(included, flows, 0.0)
        # Sequential accumulation over the (small) stream axis keeps the
        # sum order identical to the serial python `sum(flows)`.
        total_flow = np.zeros(batch)
        for k in range(n_streams):
            total_flow = total_flow + flows[k]
        active = active & (total_flow > 0.0)
        if not active.any():
            break
        safe = np.where(active, total_flow, 1.0)
        heads = heads + np.where(active, flows / safe, 0.0).reshape(-1)
    return heads


def shared_cache_misses(
    curves: list[MissCurve], size_bytes: float
) -> list[float]:
    """Per-stream misses when sharing one LRU cache of ``size_bytes``.

    K-way generalization of Listing 1: all read heads advance together,
    each in proportion to its share of the combined flow, until the
    shared capacity is exhausted; each stream's misses are its own curve
    read at its final head position.

    All ``K`` heads move as one array per step (via
    :func:`advance_flow_heads`); bit-identical to the retained scalar
    loop :func:`shared_cache_misses_reference`.
    """
    if not curves:
        return []
    chunk = curves[0].chunk_bytes
    if any(c.chunk_bytes != chunk for c in curves):
        raise ValueError("curves must share chunk_bytes")
    n = max(c.n_chunks for c in curves)
    rates = np.stack(
        [
            (c.extended(n).misses if c.n_chunks < n else c.misses)
            / max(c.instructions, 1e-12)
            for c in curves
        ]
    )
    included = np.ones((len(curves), 1), dtype=bool)
    heads = advance_flow_heads(rates, included, int(size_bytes // chunk))
    finals = interp_rows(rates, heads)
    return [float(v) * c.instructions for v, c in zip(finals, curves)]


def shared_cache_misses_reference(
    curves: list[MissCurve], size_bytes: float
) -> list[float]:
    """The pre-vectorization scalar flow loop (the oracle).

    Same contract as :func:`shared_cache_misses`; advances one head at a
    time with python-float arithmetic.  Retained for differential tests.
    """
    if not curves:
        return []
    chunk = curves[0].chunk_bytes
    if any(c.chunk_bytes != chunk for c in curves):
        raise ValueError("curves must share chunk_bytes")
    n = max(c.n_chunks for c in curves)
    rates = [
        (c.extended(n).misses if c.n_chunks < n else c.misses)
        / max(c.instructions, 1e-12)
        for c in curves
    ]
    heads = [0.0] * len(curves)
    steps = int(size_bytes // chunk)
    for __ in range(steps):
        flows = [_read(r, h) for r, h in zip(rates, heads)]
        f = sum(flows)
        if f <= 0:
            break
        for i, flow in enumerate(flows):
            heads[i] += flow / f
    return [
        float(_read(r, h)) * c.instructions
        for r, h, c in zip(rates, heads, curves)
    ]


def combine_many(curves: list[MissCurve]) -> MissCurve:
    """Combine a list of curves as a balanced tree of batched combines.

    Each tree level pairs adjacent curves and runs all of that level's
    combines through :func:`combine_miss_curves_batch` at once (an odd
    leftover is carried to the next level), so the python-level work is
    ``O(log K)`` batched calls instead of a ``K``-long serial chain.  The
    model is only associative up to grid interpolation error, so the
    tree's values can differ slightly from a left fold's; the tree also
    keeps that error balanced instead of compounding it linearly.
    """
    if not curves:
        raise ValueError("combine_many requires at least one curve")
    level = list(curves)
    while len(level) > 1:
        pairs = [
            (level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)
        ]
        combined = combine_miss_curves_batch(pairs)
        if len(level) % 2:
            combined.append(level[-1])
        level = combined
    return level[0]
