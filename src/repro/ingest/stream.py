"""Out-of-core stack-distance profiling over :class:`TraceSource` chunks.

:class:`StreamingStackProfiler` produces the same per-region,
per-interval miss curves as the in-memory
:class:`~repro.curves.reuse.StackDistanceProfiler` — bit-identical, for
any chunk size — while holding only one chunk plus per-region
footprint-sized state in memory.  That turns profiling from "load the
trace, then profile" into "profile while reading", which is what makes
multi-gigabyte external captures tractable.

The carried state lives in a :class:`StreamingProfile` handle, so a
profile does not have to be a single closed loop over a sized source:
:meth:`StreamingStackProfiler.begin` opens a handle, chunks are pushed
as they arrive, and — unlike :meth:`profile_source`'s fixed
``linspace`` windows — the handle's interval bounds are *open-ended*:
new record-count intervals (epochs) can be appended while the stream
runs, which is what the online classifier
(:class:`repro.core.whirltool.online.OnlineWhirlTool`) builds on for
unbounded sources whose ``n_records`` is ``None``.

How the chunk decomposition stays exact
---------------------------------------
The stack distance of an access is the number of distinct same-region
lines touched since that line's previous occurrence.  Split a trace at
any chunk boundary and classify each access in the current chunk:

- *locally hot* (previous occurrence inside the chunk): the whole reuse
  window lies inside the chunk, so the existing vectorized engine
  (:func:`~repro.curves.reuse._prev_occurrence` +
  :func:`~repro.curves.reuse._distances_from_prev`) computes it from
  the chunk alone.
- *locally cold, known line* (previous occurrence in an earlier chunk):
  the distinct lines in the window split into three exactly-countable
  groups.  With ``p`` the line's carried last position and ``i`` the
  access position::

      distance = A + B - C
      A = distinct lines touched in this chunk before i   (any line)
      B = carried lines whose last position is > p        (stale markers)
      C = carried lines with last position > p that were   (counted in
          re-touched in this chunk before i                both A and B)

  ``A`` is a per-segment running count of chunk-first-occurrences; ``B``
  is a searchsorted against the sorted carried positions; and because
  the ``C`` queries *are* the chunk-first-occurrences of carried lines,
  ``C`` reduces to an inversion count over their carried positions —
  resolved by the same wavelet dominance counter the in-memory engine
  uses.
- *locally cold, unknown line*: a true cold miss.

The carried state per region is exactly (line -> last sampled position)
as two line-sorted arrays; histograms accumulate per (region, interval)
in an :class:`~repro.curves.reuse.IntervalBucketAccumulator` (integer
bucket counts), so finalization shares the in-memory float pipeline
verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.curves.miss_curve import MissCurve
from repro.curves.reuse import (
    IntervalBucketAccumulator,
    StackDistanceProfiler,
    _distances_from_prev,
    _dominance_counts,
    _group_by_region,
    _prev_occurrence,
    _region_counts,
    _runs,
)
from repro.ingest.source import DEFAULT_CHUNK_RECORDS, TraceChunk, TraceSource
from repro.sim.profiling import relabel_regions

__all__ = ["StreamingProfile", "StreamingStackProfiler"]


@dataclass
class _RegionState:
    """Carried cross-chunk state for one region (sampled stream).

    ``lines`` is sorted ascending; ``pos`` holds each line's last
    sampled global position, aligned with ``lines``.
    """

    lines: np.ndarray
    pos: np.ndarray


class StreamingProfile:
    """An in-progress out-of-core profile: the carried state, exposed.

    Holds everything :meth:`StreamingStackProfiler.profile_source`
    used to keep in loop-local dicts — per-region (line -> last
    position) markers plus per-(region, interval) bucket-count
    accumulators — behind an incremental push/seal/finalize API, so a
    profile can outlive any single pass over a source:

    - :meth:`push_chunk` consumes one :class:`TraceChunk` (records must
      lie inside the currently open interval bounds);
    - :meth:`open_interval` appends a new record-count interval while
      the stream runs (the open-ended epoch model for unbounded
      sources);
    - :meth:`interval_curve` finalizes a single sealed (region,
      interval) cell, and :meth:`finalize` the whole grid.

    Bucket counts are integers, so every finalization is bit-identical
    to the one-shot engines no matter how the stream was chunked.
    """

    def __init__(
        self, profiler: StackDistanceProfiler, bounds: np.ndarray
    ) -> None:
        bounds = np.ascontiguousarray(bounds, dtype=np.int64)
        if len(bounds) < 1 or bounds[0] != 0:
            raise ValueError("bounds must start at record 0")
        if len(bounds) > 1 and bool((np.diff(bounds) < 0).any()):
            raise ValueError("bounds must be non-decreasing")
        self._p = profiler
        self.bounds = bounds
        self.offset = 0
        self._state: dict[int, _RegionState] = {}
        self._acc: dict[int, IntervalBucketAccumulator] = {}
        self._scale = float(1 << profiler.sample_shift)

    @property
    def n_intervals(self) -> int:
        """Intervals currently open (sealed or still filling)."""
        return len(self.bounds) - 1

    def region_ids(self) -> list[int]:
        """Region ids observed so far, sorted."""
        return sorted(self._acc)

    def open_interval(self, end: int) -> None:
        """Append a new interval ending at record index ``end``."""
        if end <= int(self.bounds[-1]):
            raise ValueError(
                f"interval end {end} does not extend the last bound "
                f"{int(self.bounds[-1])}"
            )
        self.bounds = np.append(self.bounds, np.int64(end))

    # ------------------------------------------------------------------
    # Per-chunk stages
    # ------------------------------------------------------------------
    def push_chunk(
        self, chunk: TraceChunk, mapping: dict[int, int] | None = None
    ) -> None:
        """Consume one chunk of records (in stream order)."""
        n = len(chunk)
        if n == 0:
            return
        if self.offset + n > int(self.bounds[-1]):
            raise ValueError(
                f"chunk extends to record {self.offset + n} but the last "
                f"open interval ends at {int(self.bounds[-1])}; call "
                "open_interval first"
            )
        lines = chunk.addrs // self._p.line_bytes
        if chunk.regions is None:
            regions = np.zeros(n, dtype=np.int32)
        else:
            regions = chunk.regions
        if mapping is not None:
            regions = relabel_regions(regions, mapping)
        self._count_accesses(regions)
        self._process_chunk(lines, regions)
        self.offset += n

    def _accumulator(self, rid: int) -> IntervalBucketAccumulator:
        acc = self._acc.get(rid)
        if acc is None:
            acc = self._acc[rid] = IntervalBucketAccumulator(
                self._p.n_chunks
            )
        acc.ensure_intervals(self.n_intervals)
        return acc

    def _count_accesses(self, regions: np.ndarray) -> None:
        """Accumulate unsampled per-(region, interval) access counts.

        Interval lookup is a two-sided ``searchsorted`` against the
        bounds: with right-side search, a record index sitting exactly
        on a (possibly duplicated) bound lands in the *last* interval
        starting there — the same interval the in-memory engine's
        ``np.repeat(arange, diff(bounds))`` assigns, because empty
        intervals (duplicate bounds) own no records.
        """
        n = len(regions)
        offset = self.offset
        bounds = self.bounds
        t0 = int(np.searchsorted(bounds, offset, side="right")) - 1
        t1 = int(np.searchsorted(bounds, offset + n - 1, side="right")) - 1
        for t in range(t0, t1 + 1):
            lo = max(0, int(bounds[t]) - offset)
            hi = min(n, int(bounds[t + 1]) - offset)
            if lo >= hi:
                continue  # empty interval straddled by this chunk
            ids, counts = _region_counts(regions[lo:hi])
            for rid, c in zip(ids.tolist(), counts.tolist()):
                self._accumulator(rid).add_accesses(t, c)

    def _process_chunk(self, lines: np.ndarray, regions: np.ndarray) -> None:
        kept = np.flatnonzero(self._p._sample_mask(lines))
        if kept.size == 0:
            return
        # Group sampled accesses by region, preserving stream order.
        g_src, g_regions = _group_by_region(regions, kept)
        g_lines = np.ascontiguousarray(lines[g_src])
        g_pos = self.offset + g_src  # global positions, ascending per segment
        rids, lengths = _runs(g_regions)
        seg_ends = np.cumsum(lengths)
        seg_starts = seg_ends - lengths
        base = np.repeat(seg_starts, lengths)

        # Locally-hot distances from the chunk alone.
        prev = _prev_occurrence(g_lines, g_regions)
        dist = _distances_from_prev(prev)
        cold_local = prev < 0
        # A: distinct lines touched earlier in the same chunk segment.
        excl = np.cumsum(cold_local) - cold_local
        distinct_before = excl - excl[base]

        for r, rid in enumerate(rids.tolist()):
            s, e = int(seg_starts[r]), int(seg_ends[r])
            st = self._state.get(rid)
            seg_cold = s + np.nonzero(cold_local[s:e])[0]
            if st is not None and seg_cold.size:
                self._resolve_carried(
                    st, g_lines, seg_cold, distinct_before, dist
                )
            self._update_state(rid, st, g_lines[s:e], g_pos[s:e])
            self._accumulate(rid, dist[s:e], g_pos[s:e])

    def _resolve_carried(
        self,
        st: _RegionState,
        g_lines: np.ndarray,
        seg_cold: np.ndarray,
        distinct_before: np.ndarray,
        dist: np.ndarray,
    ) -> None:
        """Fill distances for chunk-cold accesses whose line is carried."""
        q = g_lines[seg_cold]
        loc = np.searchsorted(st.lines, q)
        inb = loc < len(st.lines)
        hit = np.zeros(len(q), dtype=bool)
        hit[inb] = st.lines[loc[inb]] == q[inb]
        if not hit.any():
            return
        hit_idx = seg_cold[hit]
        p = st.pos[loc[hit]]  # carried position per query, in stream order
        a = distinct_before[hit_idx]
        pos_sorted = np.sort(st.pos)
        b = len(pos_sorted) - np.searchsorted(pos_sorted, p, side="right")
        # C: inversions among the carried positions of re-touched lines —
        # carried lines with a later marker that were re-touched earlier.
        counts = _dominance_counts(p, np.argsort(p, kind="stable"))
        c = np.arange(len(p), dtype=np.int64) - counts
        dist[hit_idx] = a + b - c

    def _update_state(
        self,
        rid: int,
        st: _RegionState | None,
        seg_lines: np.ndarray,
        seg_pos: np.ndarray,
    ) -> None:
        """Move touched lines' markers to their last position this chunk."""
        o = np.argsort(seg_lines, kind="stable")
        sl = seg_lines[o]
        last = np.ones(len(sl), dtype=bool)
        if len(sl) > 1:
            last[:-1] = sl[1:] != sl[:-1]
        new_lines = sl[last]
        new_pos = seg_pos[o][last]
        if st is None:
            self._state[rid] = _RegionState(lines=new_lines, pos=new_pos)
            return
        loc = np.searchsorted(st.lines, new_lines)
        inb = loc < len(st.lines)
        dup = np.zeros(len(new_lines), dtype=bool)
        dup[inb] = st.lines[loc[inb]] == new_lines[inb]
        keep_old = np.ones(len(st.lines), dtype=bool)
        keep_old[loc[dup]] = False
        # Linear merge of two sorted distinct-line arrays (np.insert
        # shifts once for all insertion points): O(F + chunk) per chunk,
        # not a footprint-sized argsort.
        old_lines = st.lines[keep_old]
        idx = np.searchsorted(old_lines, new_lines)
        self._state[rid] = _RegionState(
            lines=np.insert(old_lines, idx, new_lines),
            pos=np.insert(st.pos[keep_old], idx, new_pos),
        )

    def _accumulate(
        self, rid: int, seg_dist: np.ndarray, seg_pos: np.ndarray
    ) -> None:
        """Add one segment's distances into the interval accumulators."""
        acc = self._accumulator(rid)
        # Positions ascend within a segment, so each interval is a slice.
        w = np.searchsorted(seg_pos, self.bounds, side="left")
        for t in np.nonzero(np.diff(w) > 0)[0].tolist():
            acc.add_distances(
                t,
                seg_dist[w[t] : w[t + 1]],
                self._p.chunk_bytes,
                self._p.line_bytes,
                distance_scale=self._scale,
            )

    # ------------------------------------------------------------------
    # Finalization (shared float pipeline with the in-memory engine)
    # ------------------------------------------------------------------
    def interval_curve(
        self, rid: int, interval: int, instructions: float
    ) -> MissCurve:
        """Finalize one (region, interval) cell's accumulated counts.

        ``instructions`` is the instruction count of *this* interval
        (epochs carry their own; fixed grids split the total evenly).
        Safe to call on sealed intervals while later ones still fill.
        """
        acc = self._acc[rid]
        acc.ensure_intervals(self.n_intervals)
        return acc.interval_curve(
            interval, self._p.chunk_bytes, instructions, scale=self._scale
        )

    def finalize(self, instructions: float) -> dict[int, list[MissCurve]]:
        """Finalize every (region, interval) cell into miss curves.

        ``instructions`` is the whole-stream total, split evenly across
        intervals exactly like the in-memory engine.
        """
        instr_per_interval = instructions / self.n_intervals
        return {
            int(rid): [
                self.interval_curve(rid, t, instr_per_interval)
                for t in range(self.n_intervals)
            ]
            for rid in self.region_ids()
        }


class StreamingStackProfiler(StackDistanceProfiler):
    """Streams a :class:`TraceSource` through stack-distance profiling.

    Construction matches :class:`~repro.curves.reuse.
    StackDistanceProfiler`; :meth:`profile_source` replaces
    :meth:`~repro.curves.reuse.StackDistanceProfiler.profile` for
    sources too large to materialize, and :meth:`begin` opens an
    incremental :class:`StreamingProfile` for callers that feed chunks
    themselves (unbounded sources, online epoch profiling).
    """

    def begin(
        self, bounds: np.ndarray | list[int] | tuple[int, ...] = (0,)
    ) -> StreamingProfile:
        """Open an incremental profile with the given interval bounds.

        ``bounds`` may be just ``[0]`` (no intervals yet): the online
        path appends record-count epochs with
        :meth:`StreamingProfile.open_interval` as data arrives.
        """
        return StreamingProfile(self, np.asarray(bounds))

    def profile_source(
        self,
        source: TraceSource,
        n_intervals: int = 1,
        chunk_records: int = DEFAULT_CHUNK_RECORDS,
        instructions: float | None = None,
        mapping: dict[int, int] | None = None,
    ) -> dict[int, list[MissCurve]]:
        """Profile a source into per-region, per-interval miss curves.

        Args:
            source: the trace to profile (addresses are divided by this
                profiler's ``line_bytes``; sources without regions are
                profiled as a single region 0).  Must be *sized*
                (``n_records`` not ``None``): equal-width interval
                windows need the total up front.  Unbounded sources
                stream through :class:`repro.core.whirltool.online.
                OnlineWhirlTool` (or :meth:`begin`) instead.
            n_intervals: number of equal access-index windows.
            chunk_records: records per streamed chunk (the out-of-core
                memory bound; any value yields identical output).
            instructions: total instruction count; defaults to the
                source's own.  Required when the source has none.
            mapping: optional region id -> VC id relabel applied before
                profiling (ids missing from the mapping fall into VC 0,
                matching :func:`repro.sim.profiling.profile_vcs`).

        Returns:
            Mapping ``region id -> [MissCurve, ...]``, bit-identical to
            the in-memory engine over the materialized trace.
        """
        if instructions is None:
            instructions = source.instructions
        if instructions is None or instructions <= 0:
            raise ValueError(
                "source carries no instruction count; pass instructions="
            )
        if n_intervals < 1:
            raise ValueError(f"n_intervals must be >= 1, got {n_intervals}")
        n_total = source.n_records
        if n_total is None:
            raise ValueError(
                "source is unbounded (n_records is None); equal-width "
                "intervals need a sized source — use begin() with "
                "open-ended epochs, or OnlineWhirlTool"
            )
        if n_total <= 0:
            # Same diagnosis as the ingest materialize path: a
            # degenerate linspace over zero records would silently
            # return empty curves.
            raise ValueError("source yielded no records")
        bounds = np.linspace(0, n_total, n_intervals + 1).astype(np.int64)
        prof = self.begin(bounds)
        for chunk in source.chunks(chunk_records):
            n = len(chunk)
            if n == 0:
                continue
            if prof.offset + n > n_total:
                raise ValueError(
                    f"source yielded more than its declared "
                    f"{n_total} records"
                )
            prof.push_chunk(chunk, mapping=mapping)
        if prof.offset != n_total:
            raise ValueError(
                f"source yielded {prof.offset} records but declared {n_total}"
            )
        return prof.finalize(instructions)
