"""The Appendix-B combined miss-curve model (paper Listing 1).

Estimates the miss curve of two access streams *sharing* an unpartitioned
LRU cache from their individual miss curves, using the "flow" argument:
lines are pushed toward LRU at a rate equal to the local miss rate, so when
two streams merge, each stream's read head advances in proportion to its
share of the combined flow.

The model is commutative, associative (up to grid interpolation error),
and idempotent on self-similar splits — properties exercised by the unit
and property tests, and shown in Fig 23.

Like the profiler and the partitioner one layer down, the module is a
batched engine and the curve-level calls built on it:

- :func:`combine_rate_rows` — the batched kernel.  The read-head
  recurrence is inherently sequential over the ``n + 1`` grid steps.  A
  wide batch vectorizes each step's interpolation and flow split across
  the batch axis, so ``B`` pair-combines cost one pass of length-``B``
  array ops per step; a narrow batch, where numpy's fixed cost per array
  call would dominate, runs lane by lane in Python floats.
- :func:`advance_flow_heads` — the K-way head-advance kernel shared with
  S-NUCA's shared-cache accounting: all ``K × B`` read heads move as one
  array per capacity step, with an all-flows-zero early exit.
- :func:`combine_miss_curves` / :func:`shared_cache_misses` — the
  :class:`MissCurve`-level calls: one lane of the first kernel, and one
  batch lane of the second.

The scalar loops these replaced are the oracles in
``tests/oracles/combine.py``; the Hypothesis suites pin every kernel
bit-identical to them.
"""

from __future__ import annotations

import numpy as np

from repro.curves.miss_curve import (
    MissCurve,
    _pair_curve,
    _pair_rates,
    _row_reader,
    interp_rows,
)

__all__ = [
    "advance_flow_heads",
    "combine_miss_curves",
    "combine_rate_rows",
    "shared_cache_misses",
]

#: Batches of at most this many lanes run lane by lane in Python floats
#: (:func:`_combine_lane`), wider ones through the vectorized step loop.
#: On the 401-point grid (2 vCPU, numpy 2.4) a step-loop call costs
#: about 7-12 ms up to 64 lanes, numpy's fixed cost per array op times
#: 401 steps, and a lane about 0.3-0.4 ms, less if its flow stops early.
#: Over every combine of a benchmark pass, crossovers 24 to 32 tie and 16
#: or 48 cost up to 13% more; on rows whose lanes all run every step,
#: the step loop wins from about 20 lanes.  Both loops scale with the
#: grid width, so the crossover does not depend on it.
_LANE_LOOP_MAX_BATCH = 24


def _read(curve: np.ndarray | list[float], pos: float) -> float:
    """Linearly interpolate ``curve`` at fractional index ``pos``."""
    n = len(curve) - 1
    if pos >= n:
        return float(curve[n])
    lo = int(pos)
    frac = pos - lo
    return float(curve[lo] * (1 - frac) + curve[lo + 1] * frac)


def _check_finite(*rows: np.ndarray) -> None:
    """Reject NaN and infinite rate rows before any read head moves."""
    for r in rows:
        if not np.isfinite(r).all():
            raise ValueError("rate rows must be finite (no NaN or inf)")


def _combine_lane(r1: list[float], r2: list[float]) -> list[float]:
    """One lane of :func:`combine_rate_rows`, in Python floats.

    Bit-identical to the step loop and to the scalar Listing-1 oracle
    (``combine_miss_curves_reference`` in ``tests/oracles/combine.py``):
    ``tolist()`` turns float64 into Python floats exactly (``-0.0``
    included), Python float arithmetic is IEEE double, and each step is
    the oracle's own expressions — :func:`_read`'s interpolation, the
    flow sum and the head split.  Once the flow stops, the heads are
    frozen and every later step would compute ``f`` again, so the rest
    of the row is ``f``: what the step loop writes for a frozen lane.
    A head driven below the grid raises before it is read, as
    :func:`interp_rows` does.
    """
    width = len(r1)
    out: list[float] = []
    s1 = s2 = 0.0
    for __ in range(width):
        if s1 < 0 or s2 < 0:
            raise ValueError("pos must be non-negative")
        f1 = _read(r1, s1)
        f2 = _read(r2, s2)
        f = f1 + f2
        out.append(f)
        if not f > 0:
            out.extend([f] * (width - len(out)))
            break
        s1 += f1 / f
        s2 += f2 / f
    return out


def combine_rate_rows(r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """Batched Listing-1 recurrence over per-instruction rate rows.

    Args:
        r1, r2: ``(B, n + 1)`` rate rows (misses per instruction on the
            size grid), one pair-combine per row.

    Returns:
        ``(B, n + 1)`` combined rate rows.  Each row is bit-identical to
        the scalar Listing-1 oracle on the same pair, whichever loop runs
        it: a batch of at most
        ``_LANE_LOOP_MAX_BATCH`` lanes goes through :func:`_combine_lane`
        one lane at a time, a wider one through a step loop that
        evaluates the same IEEE expressions elementwise across the batch.

    Raises:
        ValueError: the rows differ in shape, hold a NaN or an infinity,
            or drive a read head below the grid.
    """
    r1 = np.ascontiguousarray(r1, dtype=np.float64)
    r2 = np.ascontiguousarray(r2, dtype=np.float64)
    if r1.shape != r2.shape or r1.ndim != 2:
        raise ValueError(f"rate rows must share a (B, n+1) shape, got {r1.shape} vs {r2.shape}")
    _check_finite(r1, r2)
    batch, width = r1.shape
    out = np.empty((batch, width), dtype=np.float64)
    if batch <= _LANE_LOOP_MAX_BATCH:
        for lane, (row1, row2) in enumerate(zip(r1.tolist(), r2.tolist())):
            out[lane] = _combine_lane(row1, row2)
        return out
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


def combine_miss_curves(a: MissCurve, b: MissCurve) -> MissCurve:
    """Combined miss curve of two pools sharing one cache (Listing 1).

    Both inputs must share ``chunk_bytes``; the shorter grid is extended
    with its last value, and the result is on the longer one.  Sizes past
    the sum of the two working sets saturate at the sum of the inputs'
    floor miss rates.  One lane of :func:`combine_rate_rows` on the
    pair's per-instruction rates.
    """
    r1, r2 = _pair_rates(a, b)
    return _pair_curve(combine_rate_rows(r1[None], r2[None])[0], a, b)


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

    Raises:
        ValueError: a rate row holds a NaN or an infinity, or a head is
            driven below the grid.
    """
    _check_finite(rates_flat)
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
    :func:`advance_flow_heads`); bit-identical to the scalar flow loop,
    ``shared_cache_misses_reference`` in ``tests/oracles/combine.py``.
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
