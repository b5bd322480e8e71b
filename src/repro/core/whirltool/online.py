"""Online Whirlpool: incremental live-stream classification.

The paper's deployment story is classifying *live* application data,
but the batch pipeline is profile-fully-then-cluster.  This module
closes that gap: :class:`OnlineWhirlTool` consumes a
:class:`~repro.ingest.source.TraceSource` chunk-by-chunk, accumulating
per-(region, epoch) bucket-count histograms on the streaming profiler's
carried state, and revises the pool clustering as traffic arrives.

Epoch model
-----------
Profiling intervals become *epochs* sealed as data passes them:

- **Sized sources** (``n_records`` known) keep the offline engine's
  equal-width ``linspace`` grid, so streaming to completion reproduces
  the offline profile — and therefore the offline
  :meth:`~repro.core.whirltool.analyzer.WhirlToolAnalyzer.cluster` —
  bit-identically (merge order, distances, tie-breaks), for any chunk
  size.  ``online_pools_reference`` in ``tests/oracles/online.py`` is
  that offline pipeline, the differential tests' oracle.
- **Unbounded sources** (``n_records`` is ``None``: live pipes,
  growing files, generators) get fixed-size record-count epochs
  appended open-endedly (:meth:`~repro.ingest.stream.StreamingProfile.
  open_interval`); a trailing partial epoch is sealed at
  :meth:`OnlineWhirlTool.finish`.

Re-clustering
-------------
Each sealed epoch's curves feed a :class:`PhaseDetector` — the Fig-6 /
Fig-11 signal (per-region APKI and MPKI at a probe size) compared
against the previous epoch — and a phase change triggers a re-cluster
through :meth:`~repro.core.whirltool.analyzer.WhirlToolAnalyzer.
cluster_incremental`.  Its cache keys every pool of the merge tree by
merge structure and keeps the pool's per-epoch rate and hull rows and
each evaluated pair's per-epoch distance terms, so a re-cluster computes
only the epochs a pool or pair has not seen and replays the rest.
Sealed epochs are final (integer bucket counts never change), which is
exactly the cache's contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.core.whirltool.analyzer import (
    ClusteringResult,
    IncrementalClusterCache,
    WhirlToolAnalyzer,
)
from repro.core.whirltool.profiler import CallpointProfile
from repro.curves.miss_curve import MissCurve
from repro.ingest.source import DEFAULT_CHUNK_RECORDS, TraceChunk, TraceSource
from repro.ingest.stream import StreamingProfile, StreamingStackProfiler

__all__ = [
    "EpochReport",
    "OnlineWhirlTool",
    "PhaseDetector",
]

#: Default records per epoch for unbounded sources.
DEFAULT_EPOCH_RECORDS = 1 << 16


@dataclass
class EpochReport:
    """What the online classifier emits when an epoch seals.

    Attributes:
        epoch: sealed epoch index (0-based).
        end_record: stream record index the epoch ends at.
        phase_change: whether the detector flagged a regime shift.
        reclustered: whether pools were revised this epoch.
        pools: the current clustering (None until the first cluster).
        assignments: callpoint -> pool cut at the tool's ``n_pools``
            (None until the first cluster).
    """

    epoch: int
    end_record: int
    phase_change: bool
    reclustered: bool
    pools: ClusteringResult | None
    assignments: dict[int, int] | None


class PhaseDetector:
    """Flags epochs whose traffic regime shifts (Fig 6 / Fig 11 signal).

    The phase signature of an epoch is, per active region, the pair
    (APKI, MPKI at a probe size) — access intensity and how
    cache-friendly the region currently is.  An epoch is a phase change
    when a region appears or disappears (APKI crossing ``min_apki``) or
    when either signature component moves by more than
    ``rel_threshold`` relative to the previous epoch.

    Args:
        rel_threshold: relative change that counts as a shift.
        min_apki: regions below this APKI are ignored (noise floor).
        probe_fraction: probe size as a fraction of the curve's modeled
            range (``max_bytes``).
    """

    def __init__(
        self,
        rel_threshold: float = 0.5,
        min_apki: float = 0.05,
        probe_fraction: float = 0.25,
    ) -> None:
        if rel_threshold <= 0:
            raise ValueError(
                f"rel_threshold must be positive, got {rel_threshold}"
            )
        if not 0.0 <= probe_fraction <= 1.0:
            raise ValueError(
                f"probe_fraction must be in [0, 1], got {probe_fraction}"
            )
        self.rel_threshold = rel_threshold
        self.min_apki = min_apki
        self.probe_fraction = probe_fraction
        self._prev: dict[int, tuple[float, float]] | None = None

    def signature(
        self, curves: dict[int, MissCurve]
    ) -> dict[int, tuple[float, float]]:
        """Per-region (APKI, MPKI@probe) for one epoch's curves."""
        sig: dict[int, tuple[float, float]] = {}
        for rid, curve in curves.items():
            if curve.instructions <= 0:
                continue
            apki = curve.apki
            if apki < self.min_apki:
                continue
            probe = self.probe_fraction * curve.max_bytes
            sig[rid] = (apki, curve.mpki_at(probe))
        return sig

    def update(self, curves: dict[int, MissCurve]) -> bool:
        """Feed one sealed epoch; True when it opens a new phase.

        The first epoch establishes the baseline and is never a phase
        change (the caller clusters it unconditionally anyway).
        """
        sig = self.signature(curves)
        prev, self._prev = self._prev, sig
        if prev is None:
            return False
        if set(sig) != set(prev):
            return True
        for rid, (apki, mpki) in sig.items():
            p_apki, p_mpki = prev[rid]
            for now, was in ((apki, p_apki), (mpki, p_mpki)):
                if abs(now - was) > self.rel_threshold * max(abs(was), 1e-12):
                    return True
        return False


class OnlineWhirlTool:
    """Incremental WhirlTool: pools revised as the stream arrives.

    Drive it either with :meth:`run` (consume a whole source) or with
    :meth:`start` / :meth:`push` / :meth:`finish` for live streams
    where chunks arrive on the caller's schedule.

    Args:
        chunk_bytes: miss-curve grid step.
        n_chunks: grid length.
        sample_shift: address sampling (2^shift speedup).
        n_pools: pools to cut the merge tree at for reported
            assignments (the paper settles on 3).
        n_intervals: epoch count for *sized* sources (equal-width
            windows, the offline grid).
        epoch_records: records per epoch for *unbounded* sources.
        instructions: total instruction count for sized sources
            (defaults to the source's own).
        instructions_per_record: instruction rate for unbounded
            sources, whose totals are unknowable up front; each epoch's
            window is ``records * instructions_per_record``.
        analyzer: clustering engine (defaults to a fresh
            :class:`~repro.core.whirltool.analyzer.WhirlToolAnalyzer`).
        detector: phase detector (defaults to :class:`PhaseDetector`).
    """

    def __init__(
        self,
        chunk_bytes: int = 64 * 1024,
        n_chunks: int = 400,
        sample_shift: int = 3,
        n_pools: int = 3,
        n_intervals: int = 8,
        epoch_records: int = DEFAULT_EPOCH_RECORDS,
        instructions: float | None = None,
        instructions_per_record: float = 1.0,
        analyzer: WhirlToolAnalyzer | None = None,
        detector: PhaseDetector | None = None,
    ) -> None:
        if n_intervals < 1:
            raise ValueError(f"n_intervals must be >= 1, got {n_intervals}")
        if epoch_records < 1:
            raise ValueError(
                f"epoch_records must be >= 1, got {epoch_records}"
            )
        if instructions_per_record <= 0:
            raise ValueError(
                "instructions_per_record must be positive, got "
                f"{instructions_per_record}"
            )
        self.chunk_bytes = chunk_bytes
        self.n_chunks = n_chunks
        self.sample_shift = sample_shift
        self.n_pools = n_pools
        self.n_intervals = n_intervals
        self.epoch_records = epoch_records
        self.instructions = instructions
        self.instructions_per_record = instructions_per_record
        self.analyzer = analyzer if analyzer is not None else WhirlToolAnalyzer()
        self.detector = detector if detector is not None else PhaseDetector()
        self._prof: StreamingProfile | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, source: TraceSource) -> None:
        """Bind to a source: fix the epoch grid and reset all state."""
        profiler = StreamingStackProfiler(
            chunk_bytes=self.chunk_bytes,
            n_chunks=self.n_chunks,
            line_bytes=source.line_bytes,
            sample_shift=self.sample_shift,
        )
        n_total = source.n_records
        if n_total is not None:
            if n_total <= 0:
                # Same diagnosis as materialize / profile_source.
                raise ValueError("source yielded no records")
            instructions = (
                self.instructions
                if self.instructions is not None
                else source.instructions
            )
            if instructions is None or instructions <= 0:
                raise ValueError(
                    "source carries no instruction count; pass instructions="
                )
            # The offline engine's grid, so stream-to-completion
            # reproduces the offline profile bit-identically.
            bounds = np.linspace(0, n_total, self.n_intervals + 1).astype(
                np.int64
            )
            self._prof = profiler.begin(bounds)
            self._instr_per_interval: float | None = (
                instructions / self.n_intervals
            )
        else:
            self._prof = profiler.begin([0])
            self._instr_per_interval = None
        self._n_total = n_total
        self._names = dict(source.region_names)
        self._sealed = 0
        self._epoch_instrs: list[float] = []
        self._curves: dict[int, list[MissCurve]] = {}
        self._cache = IncrementalClusterCache()
        self._result: ClusteringResult | None = None
        self._finished = False

    def push(
        self, chunk: TraceChunk, mapping: dict[int, int] | None = None
    ) -> list[EpochReport]:
        """Consume one chunk; return a report per epoch it seals."""
        prof = self._require_started()
        if self._finished:
            raise ValueError("OnlineWhirlTool is finished; call start() again")
        n = len(chunk)
        if n == 0:
            return []
        if self._n_total is not None and prof.offset + n > self._n_total:
            raise ValueError(
                f"source yielded more than its declared "
                f"{self._n_total} records"
            )
        if self._n_total is None:
            while int(prof.bounds[-1]) < prof.offset + n:
                prof.open_interval(int(prof.bounds[-1]) + self.epoch_records)
        prof.push_chunk(chunk, mapping=mapping)
        reports = []
        while (
            self._sealed < prof.n_intervals
            and int(prof.bounds[self._sealed + 1]) <= prof.offset
        ):
            reports.append(self._seal_epoch())
        return reports

    def finish(self) -> ClusteringResult:
        """End of stream: seal any partial epoch, final re-cluster."""
        prof = self._require_started()
        if self._finished:
            raise ValueError("OnlineWhirlTool is already finished")
        if self._n_total is not None and prof.offset != self._n_total:
            raise ValueError(
                f"source yielded {prof.offset} records but declared "
                f"{self._n_total}"
            )
        if self._n_total is None:
            if prof.offset <= 0:
                raise ValueError("source yielded no records")
            if self._sealed < prof.n_intervals:
                # Trailing partial epoch: close its bound at the actual
                # end of stream and seal it.  Records already landed in
                # it (bucket counts are record-indexed), so truncating
                # the open bound is bookkeeping, not re-binning.
                prof.bounds = prof.bounds.copy()
                prof.bounds[-1] = prof.offset
                while self._sealed < prof.n_intervals:
                    self._seal_epoch()
        self._recluster()
        self._finished = True
        result = self._result
        assert result is not None
        return result

    def run(
        self,
        source: TraceSource,
        chunk_records: int = DEFAULT_CHUNK_RECORDS,
        mapping: dict[int, int] | None = None,
    ) -> ClusteringResult:
        """Stream a whole source through start / push / finish.

        Streaming a *sized* source to completion yields pools
        bit-identical to the offline profile-then-cluster pipeline
        (:class:`~repro.curves.reuse.StackDistanceProfiler`, then
        :meth:`~repro.core.whirltool.analyzer.WhirlToolAnalyzer.cluster`)
        for any ``chunk_records``.
        """
        self.start(source)
        for chunk in source.chunks(chunk_records):
            self.push(chunk, mapping=mapping)
        return self.finish()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pools(self) -> ClusteringResult | None:
        """The most recent clustering (None before the first epoch)."""
        return self._result

    @property
    def sealed_epochs(self) -> int:
        """Epochs sealed so far."""
        return self._sealed

    def profile(self) -> CallpointProfile:
        """The sealed-epoch profile (what re-clustering consumes)."""
        return CallpointProfile(
            curves={rid: list(s) for rid, s in self._curves.items()},
            names=dict(self._names),
            n_intervals=self._sealed,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _require_started(self) -> StreamingProfile:
        if self._prof is None:
            raise ValueError("call start(source) before pushing chunks")
        return self._prof

    def _epoch_instructions(self, t: int) -> float:
        if self._instr_per_interval is not None:
            return self._instr_per_interval
        prof = self._require_started()
        records = int(prof.bounds[t + 1]) - int(prof.bounds[t])
        return records * self.instructions_per_record

    def _seal_epoch(self) -> EpochReport:
        with obs.span("online.seal_epoch", epoch=self._sealed) as seal_span:
            return self._seal_epoch_traced(seal_span)

    def _seal_epoch_traced(self, seal_span) -> EpochReport:
        prof = self._require_started()
        t = self._sealed
        instr_t = self._epoch_instructions(t)
        self._epoch_instrs.append(instr_t)
        for rid in prof.region_ids():
            series = self._curves.get(rid)
            if series is None:
                # Region first seen this epoch: backfill the earlier
                # epochs with its (zero-access, hence inactive) curves
                # so the profile stays rectangular.
                series = self._curves[rid] = [
                    prof.interval_curve(rid, s, self._epoch_instrs[s])
                    for s in range(t)
                ]
            series.append(prof.interval_curve(rid, t, instr_t))
        self._sealed = t + 1
        phase_change = self.detector.update(
            {rid: series[t] for rid, series in self._curves.items()}
        )
        recluster = phase_change or self._result is None
        obs.counter("online.epochs")
        if phase_change:
            obs.counter("online.phase_changes")
            obs.event("online.phase_change", epoch=t)
        if recluster:
            # First cluster pays for every epoch; phase-triggered
            # re-clusters replay cached epochs (cluster_incremental).
            obs.counter(
                "online.recluster.full"
                if self._result is None
                else "online.recluster.incremental"
            )
            self._recluster()
        seal_span.note(
            epoch=t, phase_change=phase_change, reclustered=recluster
        )
        result = self._result
        return EpochReport(
            epoch=t,
            end_record=int(prof.bounds[t + 1]),
            phase_change=phase_change,
            reclustered=recluster,
            pools=result,
            assignments=(
                result.assignments(self.n_pools)
                if result is not None
                else None
            ),
        )

    def _recluster(self) -> None:
        if self._sealed == 0 or not self._curves:
            return
        self._result = self.analyzer.cluster_incremental(
            self.profile(), self._cache
        )
