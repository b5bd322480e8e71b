#!/usr/bin/env python3
"""Ingesting an external memory trace, end to end.

Plays both sides of the fence: first *captures* a fake application —
a packed-binary address trace (the shape a DynamoRIO memtrace client
produces) plus an allocation log — then ingests it:

1. attribute raw addresses to Whirlpool regions via the allocation log
   (unattributed addresses fall into the "heap" pool),
2. convert to the native ``.rtrace`` archive (content-fingerprinted),
3. publish it into the artifact store under a workload name, so every
   scheme, sweep and campaign can run it by name,
4. profile it **out of core** with the streaming engine and check the
   curves are bit-identical to the in-memory profiler.

Run:  python examples/ingest_external.py
(the store is ``$REPRO_STORE_DIR``, else the checkout's ``.repro_store``)
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.ingest import (
    ArraySource,
    AttributedSource,
    AttributionTable,
    RTraceSource,
    StreamingStackProfiler,
    convert_to_rtrace,
    open_trace_source,
    write_trace_file,
)
from repro.curves.reuse import StackDistanceProfiler
from repro.mem.allocator import HeapAllocator


def capture_fake_application(workdir: Path) -> tuple[Path, Path]:
    """Produce what an instrumentation tool would hand us."""
    heap = HeapAllocator()
    graph = heap.pool_malloc(4 << 20, heap.pool_create(), callpoint=1001)
    index = heap.pool_malloc(1 << 20, heap.pool_create(), callpoint=1002)
    rng = np.random.default_rng(42)
    addrs = np.concatenate(
        [
            graph.base + rng.integers(0, graph.size, 300_000),  # scattered
            index.base + rng.integers(0, index.size, 150_000),  # hot
            rng.integers(0x7FF0_0000, 0x7FF2_0000, 50_000),  # stack-ish
        ]
    )
    rng.shuffle(addrs)

    trace_path = workdir / "capture.mtrace"
    write_trace_file(trace_path, ArraySource(addrs=addrs.astype(np.int64)))
    table = AttributionTable.from_heap(
        heap, names={1001: "graph", 1002: "index"}
    )
    log_path = workdir / "allocs.jsonl"
    table.to_log(log_path)
    return trace_path, log_path


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-ingest-") as tmp:
        workdir = Path(tmp)
        trace_path, log_path = capture_fake_application(workdir)
        print(f"captured: {trace_path.name} "
              f"({trace_path.stat().st_size >> 20} MiB), {log_path.name}")

        # 1+2. Attribute and convert (equivalent CLI:
        #   python -m repro ingest convert capture.mtrace app.rtrace \
        #       --alloc-log allocs.jsonl --apki 12)
        source = AttributedSource(
            open_trace_source(trace_path), AttributionTable.from_log(log_path)
        )
        archive = workdir / "extapp.rtrace"
        header = convert_to_rtrace(source, archive, apki=12.0)
        print(f"converted: {header['n_records']} records, "
              f"regions {sorted(header['region_names'].values())}, "
              f"fingerprint {header['fingerprint']}")

        # 3. Register: a name bound in the artifact store resolves
        #    everywhere (equivalent CLI:
        #    python -m repro ingest register extapp.rtrace --name extapp).
        from repro.store import ArtifactStore, publish_trace
        from repro.workloads import build_workload

        __, stored = publish_trace(ArtifactStore(), archive, name="extapp")
        workload = build_workload("extapp")
        print(f"registered workload: {workload.name}, "
              f"{len(workload.trace)} accesses, apki {workload.trace.apki:.1f}")

        # 4. Out-of-core profiling, bit-identical to in-memory.
        rtrace = RTraceSource(stored)
        streaming = StreamingStackProfiler(chunk_bytes=64 * 1024, n_chunks=64)
        got = streaming.profile_source(rtrace, n_intervals=4,
                                       chunk_records=1 << 16)
        mem = StackDistanceProfiler(chunk_bytes=64 * 1024, n_chunks=64)
        want = mem.profile(workload.trace.lines, workload.trace.regions,
                           workload.trace.instructions, n_intervals=4)
        exact = all(
            np.array_equal(cg.misses, cw.misses)
            for rid in want
            for cg, cw in zip(got[rid], want[rid])
        )
        print(f"streaming vs in-memory curves bit-identical: {exact}")
        for rid, curves in sorted(got.items()):
            name = rtrace.region_names.get(rid, str(rid))
            print(f"  region {name:>6}: apki {curves[0].apki:.2f}, "
                  f"{len(curves)} interval curves")


if __name__ == "__main__":
    main()
