"""The stack-distance sweep over every access, with binary levels only.

The oracle for ``repro.curves.reuse._distances_from_prev``, which sweeps
only re-touches and finishes large sweeps with per-row bitmaps.  Here a
first touch enters the sweep keyed at its segment start minus one, the
keys are ordered with a counting sort, and the sweep splits rows by
position bit all the way down to rows of two.
"""

import numpy as np

from repro.curves.reuse import COLD, _wavelet_level


def _key_order(keys, cold, cold_rank):
    """Stable argsort of ``keys`` in O(n), for the oracle's key layout.

    Non-cold keys are distinct, and ties occur only among cold keys,
    whose relative order is supplied as ``cold_rank`` (rank of each cold
    element among equal-key cold elements, in position order).
    """
    n = len(keys)
    kk = (keys + 1).astype(np.int64)
    cnt = np.bincount(kk, minlength=n + 1)
    starts = np.cumsum(cnt) - cnt
    slot = starts[kk] + np.where(cold, cold_rank, 0)
    order = np.empty(n, dtype=np.int64)
    order[slot] = np.arange(n, dtype=np.int64)
    return order


def dominance_counts_reference(keys, order):
    """``counts[i] = #{j < i : keys[j] <= keys[i]}``, by binary levels only.

    ``order`` must be the stable argsort of ``keys``.  Positions are split
    into chunks of ``C = 2^logC``; pass 1 counts cross-chunk pairs over
    chunk-id bits with elements in key order, and pass 2 counts
    within-chunk pairs over the low position bits, down to rows of two.
    """
    n = len(keys)
    if n < 2:
        return np.zeros(n, dtype=np.int64)
    logC = max(1, min(15, (n - 1).bit_length()))
    C = 1 << logC
    n_chunks = -(-n // C)
    m = n_chunks * C
    if m > n:
        order = np.concatenate([order, np.arange(n, m, dtype=order.dtype)])
    scratch = [np.empty(m, dtype=np.int32) for _ in range(3)]
    packed = order.astype(np.int64) << 32
    spare = np.empty_like(packed)
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
    counts = np.empty(m, dtype=np.int64)
    counts[packed >> 32] = packed & 0xFFFFFFFF
    packed32 = (((packed >> 32) & (C - 1)) << logC).astype(np.int32)
    spare32 = np.empty_like(packed32)
    for b in range(logC - 1, -1, -1):
        width = 1 << (b + 1)
        _wavelet_level(
            packed32.reshape(-1, width), spare32, logC + b, width, scratch
        )
        packed32, spare32 = spare32, packed32
    counts[:n] += packed32[:n] & np.int32(C - 1)
    return counts[:n]


def distances_from_prev_reference(prev, base=0):
    """Distances from a previous-occurrence array, sweeping every access.

    ``base`` is each access's segment start (0 for a single stream).  A
    cold access is keyed at ``base - 1``, so that inside its segment it
    sorts below every real ``prev`` index but above everything in earlier
    segments, and the dominance count telescopes per segment.
    """
    n = len(prev)
    out = np.full(n, COLD, dtype=np.int64)
    cold = prev < 0
    if n == 0 or cold.all():
        return out
    base = np.asarray(base, dtype=np.int64)
    keys = np.where(cold, base - 1, prev)
    cold_cum = np.concatenate(([0], np.cumsum(cold)))
    cold_rank = cold_cum[:-1] - cold_cum[base] if base.ndim else cold_cum[:-1]
    counts = dominance_counts_reference(keys, _key_order(keys, cold, cold_rank))
    hot = ~cold
    out[hot] = counts[hot] - keys[hot] - 1
    return out
