#!/usr/bin/env python3
"""Online Whirlpool: classify a live stream, epoch by epoch.

The batch pipeline (``automatic_classification.py``) profiles a whole
training run before clustering.  This example drives the *online*
variant instead:

1. synthesize a three-phase access stream (a drifting working set, the
   Fig-6/Fig-11 situation) and serve it as an **unbounded** source —
   ``n_records`` unknown, chunks arriving one at a time;
2. feed it to :class:`OnlineWhirlTool`, which seals a profiling epoch
   every ``epoch_records`` records, flags phase changes, and revises
   the pool clustering incrementally when they happen;
3. at end of stream, compare against the offline pipeline run over
   the same records — :class:`StackDistanceProfiler`, then
   :meth:`WhirlToolAnalyzer.cluster` — to which the streamed pools are
   *bit-identical* when epochs line up with its equal-width intervals.

The CLI equivalent for real captures is::

    python -m repro ingest watch trace.csv --format csv --epoch-records 65536

Run:  python examples/online_whirlpool.py
"""

import numpy as np

from repro.core.whirltool import CallpointProfile, OnlineWhirlTool, WhirlToolAnalyzer
from repro.curves import StackDistanceProfiler
from repro.ingest import IterableSource, TraceChunk

EPOCH_RECORDS = 2_000
N_EPOCHS = 9
NAMES = {0: "nodes", 1: "edges", 2: "flags"}


def synthesize(seed=7):
    """Three regions; the 'edges' working set grows 3x mid-stream."""
    rng = np.random.default_rng(seed)
    n = EPOCH_RECORDS * N_EPOCHS
    regions = rng.integers(0, 3, n).astype(np.int32)
    spread = np.where(np.arange(n) < n // 2, 40, 120)  # the phase change
    per_region = {0: 30, 1: 0, 2: 8}  # edges uses the drifting spread
    lines = np.empty(n, dtype=np.int64)
    for rid, width in per_region.items():
        mask = regions == rid
        w = spread[mask] if rid == 1 else width
        lines[mask] = rng.integers(0, w, mask.sum()) + rid * 4096
    return lines * 64, regions


def main() -> None:
    addrs, regions = synthesize()

    def arriving():
        # One network-packet-sized chunk at a time, no length up front.
        for start in range(0, len(addrs), 512):
            stop = start + 512
            yield TraceChunk(addrs=addrs[start:stop], regions=regions[start:stop])

    tool = OnlineWhirlTool(
        chunk_bytes=4096,
        n_chunks=64,
        sample_shift=0,
        n_pools=2,
        epoch_records=EPOCH_RECORDS,
    )
    tool.start(IterableSource(arriving(), region_names=NAMES))
    print(f"streaming {N_EPOCHS} epochs x {EPOCH_RECORDS} records:")
    for chunk in IterableSource(arriving(), region_names=NAMES).chunks(512):
        for report in tool.push(chunk):
            tags = []
            if report.phase_change:
                tags.append("PHASE CHANGE")
            if report.reclustered:
                tags.append("re-clustered")
            note = f"  <- {', '.join(tags)}" if tags else ""
            pools = {}
            for cp, pool in report.assignments.items():
                pools.setdefault(pool, []).append(NAMES[cp])
            cut = "  ".join(
                f"pool{p}={{{','.join(sorted(ms))}}}"
                for p, ms in sorted(pools.items())
            )
            print(f"  epoch {report.epoch}: {cut}{note}")
    final = tool.finish()

    print("\nfinal merge tree (streamed):")
    print(final.dendrogram_text())

    # The offline pipeline over the same records: equal-width intervals
    # line up with the record-count epochs here, so the streamed result
    # must match float-for-float.
    curves = StackDistanceProfiler(chunk_bytes=4096, n_chunks=64).profile(
        addrs // 64, regions, float(len(addrs)), n_intervals=N_EPOCHS
    )
    offline = WhirlToolAnalyzer().cluster(
        CallpointProfile(curves=curves, names=NAMES, n_intervals=N_EPOCHS)
    )
    identical = final.merges == offline.merges
    print(f"\nbit-identical to the offline pipeline: {identical}")
    assert identical


if __name__ == "__main__":
    main()
