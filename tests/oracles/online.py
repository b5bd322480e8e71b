"""The offline profile-then-cluster pipeline over a sized source.

The oracle for ``repro.core.whirltool.online.OnlineWhirlTool.run``:
streaming a sized source to completion must give pools bit-identical to
this, for any chunking.
"""

import numpy as np

from repro.core.whirltool.analyzer import ClusteringResult, WhirlToolAnalyzer
from repro.core.whirltool.profiler import CallpointProfile
from repro.curves.reuse import StackDistanceProfiler
from repro.ingest.source import TraceSource


def online_pools_reference(
    source: TraceSource,
    chunk_bytes: int = 64 * 1024,
    n_chunks: int = 400,
    sample_shift: int = 3,
    n_intervals: int = 8,
    instructions: float | None = None,
    mapping: dict[int, int] | None = None,
) -> ClusteringResult:
    """The offline oracle for :meth:`OnlineWhirlTool.run`.

    Materializes the (sized) source in memory, profiles it with the
    one-shot :class:`~repro.curves.reuse.StackDistanceProfiler`, and
    clusters with the batch :meth:`~repro.core.whirltool.analyzer.
    WhirlToolAnalyzer.cluster` — the pre-online pipeline, so the
    differential tests can pin the streamed result bit-identical to it
    (merge order, distances, tie-breaks) for any chunking.
    """
    if instructions is None:
        instructions = source.instructions
    if instructions is None or instructions <= 0:
        raise ValueError(
            "source carries no instruction count; pass instructions="
        )
    n_total = source.n_records
    if n_total is None:
        raise ValueError(
            "the offline oracle needs a sized, replayable source"
        )
    if n_total <= 0:
        raise ValueError("source yielded no records")
    addr_parts: list[np.ndarray] = []
    region_parts: list[np.ndarray] = []
    for chunk in source.chunks():
        addr_parts.append(chunk.addrs)
        region_parts.append(
            chunk.regions
            if chunk.regions is not None
            else np.zeros(len(chunk), dtype=np.int32)
        )
    lines = np.concatenate(addr_parts) // source.line_bytes
    regions = np.concatenate(region_parts)
    if mapping is not None:
        from repro.sim.profiling import relabel_regions

        regions = relabel_regions(regions, mapping)
    profiler = StackDistanceProfiler(
        chunk_bytes=chunk_bytes,
        n_chunks=n_chunks,
        line_bytes=source.line_bytes,
        sample_shift=sample_shift,
    )
    curves = profiler.profile(
        lines, regions, instructions, n_intervals=n_intervals
    )
    profile = CallpointProfile(
        curves=curves,
        names=dict(source.region_names),
        n_intervals=n_intervals,
    )
    return WhirlToolAnalyzer().cluster(profile)
