"""The ingestion pipeline: source -> attribution -> native archive.

:func:`convert_to_rtrace` is the workhorse behind ``python -m repro
ingest convert``: it streams any :class:`TraceSource` through optional
private-cache dedup into an ``.rtrace`` archive, in bounded memory.
Attribution is a source like any other: :class:`AttributedSource`
wraps a bare capture and an allocation log's :class:`AttributionTable`.
:func:`materialize` produces an in-memory
:class:`~repro.workloads.trace.Trace` the simulator can run directly,
and :func:`load_workload` wraps a registered archive as a first-class
:class:`~repro.workloads.trace.Workload`.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.ingest.attribute import FALLBACK_NAME, AttributionTable
from repro.ingest.formats import RTraceWriter, open_trace_source
from repro.ingest.source import DEFAULT_CHUNK_RECORDS, TraceSource
from repro.workloads.trace import RepeatFilter, Trace, Workload

__all__ = [
    "AttributedSource",
    "convert_to_rtrace",
    "load_workload",
    "materialize",
    "resolve_instructions",
]


class AttributedSource:
    """A source wrapper that attributes regions on the fly.

    Chunks that already carry regions pass through unchanged; bare
    chunks get ``table.attribute`` applied.  Lets every consumer — the
    exporters, the streaming profiler, conversion — treat attribution
    as just another source; it is the only way to attribute one.
    """

    def __init__(self, source: TraceSource, table: AttributionTable) -> None:
        self._source = source
        self._table = table
        self.n_records = source.n_records
        self.line_bytes = source.line_bytes
        self.instructions = source.instructions
        self.region_names = dict(source.region_names)
        self.region_names.update(table.region_names)

    def chunks(self, max_records: int = DEFAULT_CHUNK_RECORDS):
        for chunk in self._source.chunks(max_records):
            if chunk.regions is None:
                chunk.regions = self._table.attribute(chunk.addrs)
            yield chunk


def resolve_instructions(
    source: TraceSource,
    n_records: int,
    instructions: float | None = None,
    apki: float | None = None,
) -> float | None:
    """Pick the instruction count for an ingested trace.

    Priority: explicit ``instructions``, then ``apki`` (derived from the
    record count, like :meth:`TraceBuilder.finalize`), then whatever the
    capture itself carries.
    """
    if instructions is not None and apki is not None:
        raise ValueError("provide at most one of instructions / apki")
    if instructions is not None:
        if instructions <= 0:
            raise ValueError(f"instructions must be positive, got {instructions}")
        return float(instructions)
    if apki is not None:
        if apki <= 0:
            raise ValueError(f"apki must be positive, got {apki}")
        return n_records * 1000.0 / apki
    return source.instructions


def _chunk_regions(chunk) -> np.ndarray:
    """Region ids for one chunk: carried, or fallback 0."""
    if chunk.regions is not None:
        return chunk.regions
    return np.zeros(len(chunk), dtype=np.int32)


def _merged_names(source: TraceSource, has_regions: bool) -> dict[int, str]:
    names = dict(source.region_names)
    if not has_regions and not names:
        names[0] = FALLBACK_NAME
    return names


def convert_to_rtrace(
    source: TraceSource,
    dst: str | Path,
    line_bytes: int | None = None,
    instructions: float | None = None,
    apki: float | None = None,
    dedup: bool = False,
    max_records: int = DEFAULT_CHUNK_RECORDS,
    compression: int | None = None,
) -> dict:
    """Stream a source into a native ``.rtrace`` archive.

    Args:
        source: any trace source; wrap it in :class:`AttributedSource`
            to attribute a bare capture's regions.
        dst: destination ``.rtrace`` path.
        line_bytes: cache-line size; defaults to the source's.
        instructions / apki: instruction count override (see
            :func:`resolve_instructions`).
        dedup: collapse consecutive same-line accesses per region, like
            :meth:`TraceBuilder.finalize` (private caches filter them).
        max_records: streaming chunk size.
        compression: zip member compression (default deflate;
            ``zipfile.ZIP_STORED`` makes the archive memory-mappable —
            the content fingerprint is the same either way).

    Returns:
        The archive header that was written.
    """
    line_bytes = line_bytes if line_bytes is not None else source.line_bytes
    if compression is None:
        writer = RTraceWriter(dst, line_bytes=line_bytes)
    else:
        writer = RTraceWriter(
            dst, line_bytes=line_bytes, compression=compression
        )
    # Each region's last line carries across chunks, so the result does
    # not depend on chunking.
    repeats = RepeatFilter() if dedup else None
    has_regions = False
    try:
        for chunk in source.chunks(max_records):
            regions = _chunk_regions(chunk)
            has_regions = has_regions or chunk.regions is not None
            lines = chunk.addrs // line_bytes
            if repeats is not None:
                keep = ~repeats.chunk(lines, regions)
                lines, regions = lines[keep], regions[keep]
            writer.append(lines, regions)
    except BaseException:
        writer.close()
        Path(dst).unlink(missing_ok=True)
        raise
    return writer.close(
        instructions=resolve_instructions(
            source, writer.n_records, instructions, apki
        ),
        region_names=_merged_names(source, has_regions),
    )


def materialize(
    source: TraceSource,
    line_bytes: int | None = None,
    instructions: float | None = None,
    apki: float | None = None,
    max_records: int = DEFAULT_CHUNK_RECORDS,
) -> Trace:
    """Read a whole source into an in-memory :class:`Trace`.

    The small-trace converse of the streaming path: regions and line
    conversion behave exactly like :func:`convert_to_rtrace` without
    dedup.
    """
    line_bytes = line_bytes if line_bytes is not None else source.line_bytes
    line_chunks: list[np.ndarray] = []
    region_chunks: list[np.ndarray] = []
    has_regions = False
    if line_bytes == source.line_bytes and hasattr(source, "line_chunks"):
        # Native archives store line ids directly: read them as-is
        # (zero-copy views when the archive is mappable) instead of the
        # lines * bytes -> addrs // bytes round trip, which is the
        # identity on integers but forces two array copies.
        has_regions = True
        for lines, regions in source.line_chunks(max_records):
            line_chunks.append(lines)
            region_chunks.append(regions)
    else:
        for chunk in source.chunks(max_records):
            regions = _chunk_regions(chunk)
            has_regions = has_regions or chunk.regions is not None
            line_chunks.append(chunk.addrs // line_bytes)
            region_chunks.append(regions)
    # An empty source is diagnosed first: "no instruction count" on a
    # zero-record capture pointed users at the wrong flag.
    if not line_chunks or not sum(len(c) for c in line_chunks):
        raise ValueError("source yielded no records")
    n_records = sum(len(c) for c in line_chunks)
    instr = resolve_instructions(source, n_records, instructions, apki)
    if instr is None:
        raise ValueError(
            "source carries no instruction count; pass instructions= or "
            "apki= (or convert with --instructions / --apki)"
        )
    return Trace(
        lines=(
            line_chunks[0]
            if len(line_chunks) == 1
            else np.concatenate(line_chunks)
        ),
        regions=(
            region_chunks[0]
            if len(region_chunks) == 1
            else np.concatenate(region_chunks)
        ),
        instructions=instr,
        line_bytes=line_bytes,
        region_names=_merged_names(source, has_regions),
    )


def load_workload(path: str | Path, name: str | None = None) -> Workload:
    """Load an ingested trace file as a first-class :class:`Workload`.

    Intended for registered ``.rtrace`` archives (which carry their own
    instruction counts and region names); any format works as long as
    the file records instructions.
    """
    path = Path(path)
    source = open_trace_source(path)
    trace = materialize(source)
    return Workload(name=name if name is not None else path.stem, trace=trace)
