"""The scalar Listing-1 loops (paper Appendix B), one grid step at a time.

The oracles for ``repro.curves.combine``: ``combine_miss_curves`` runs
one lane of ``combine_rate_rows`` and ``shared_cache_misses`` moves its
read heads through ``advance_flow_heads``, and both must match these
loops bit for bit.
"""

import numpy as np

from repro.curves.combine import _read
from repro.curves.miss_curve import MissCurve


def combine_miss_curves_reference(a: MissCurve, b: MissCurve) -> MissCurve:
    """Combined miss curve of two pools sharing one cache (Listing 1).

    Both inputs must share the same grid.  The result is on the same grid;
    sizes past the sum of the two working sets saturate at the sum of the
    inputs' floor miss rates.

    This is the scalar per-grid-step loop, the oracle for
    :func:`repro.curves.combine.combine_miss_curves` (one lane of
    ``combine_rate_rows``, bit-identical to it).
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


def shared_cache_misses_reference(
    curves: list[MissCurve], size_bytes: float
) -> list[float]:
    """The pre-vectorization scalar flow loop (the oracle).

    Same contract as :func:`repro.curves.combine.shared_cache_misses`;
    advances one head at a time with python-float arithmetic.
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
