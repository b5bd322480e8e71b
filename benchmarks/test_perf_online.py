"""Online Whirlpool micro-benchmark: incremental vs from-scratch cost.

The point of :class:`OnlineWhirlTool` is that revising pools when an
epoch seals costs far less than re-running the pipeline over everything
seen so far.  This smoke streams a multi-epoch capture, re-clustering
at *every* epoch (a detector that always fires — the worst case for the
incremental path), and gates the mean per-epoch cost at >=
``SPEEDUP_FLOOR``x cheaper than a from-scratch re-profile + re-cluster
of the prefix with the same streaming engine.  It also pins the final
streamed pools bit-identical to the offline oracle, so the speed never
comes from drift.  A second test checks what the last epoch's
re-cluster replays: it may evaluate at most ``REPLAY_SHARE_CEILING`` of
the lanes (rows passed to ``combine_rate_rows``) that a cold-cache
re-cluster of the same profile evaluates, and take at most
``TIME_RATIO_CEILING`` of its seconds (both timed best of ``REPLAYS``).

Timings land in ``benchmarks/perf_online_timings.json`` (gitignored)
for the CI artifact upload, same contract as the other perf smokes.
"""

import time
from pathlib import Path

import numpy as np

from repro.core.whirltool import analyzer as analyzer_module
from repro.core.whirltool import (
    CallpointProfile,
    IncrementalClusterCache,
    OnlineWhirlTool,
    PhaseDetector,
    WhirlToolAnalyzer,
)
from repro.ingest import (
    ArraySource,
    IterableSource,
    StreamingStackProfiler,
    TraceChunk,
)
from repro.obs.timings import infer_unit, record_timings

from oracles.online import online_pools_reference

#: Capture shape: EPOCHS epochs of EPOCH_RECORDS records each.
EPOCH_RECORDS = 250_000
EPOCHS = 16
N_REGIONS = 4

#: CI gate: per-epoch incremental update must be at least this many
#: times cheaper than a from-scratch re-profile + re-cluster of the
#: prefix.  Profiling dominates at this instance size, so the
#: asymptotic ratio is ~(EPOCHS+1)/2 = 8.5x; a dedicated core measures
#: ~7x end to end, and 5x leaves slack for slow shared runners.
SPEEDUP_FLOOR = 5.0

#: CI gate: the re-cluster at the last epoch's seal evaluates at most
#: this share of a cold-cache re-cluster's lanes.  Every pool and pair
#: of an unchanged merge tree computes only the new epoch, about
#: 1/EPOCHS of the cold lanes; replaying only leaf pairs and rebuilding
#: every merged pool would evaluate about half of them.
REPLAY_SHARE_CEILING = 0.25

#: CI gate: the last epoch's re-cluster takes at most this share of a
#: cold-cache re-cluster's seconds, so its time follows its lanes, not a
#: fixed cost per combine call.  The narrow batches it sends run lane by
#: lane and the ratio reads about 0.25; when every batch paid the
#: vectorized step loop's fixed cost, it read 0.4-0.9 (median 0.67, nine
#: runs) for the same 12-of-192 lane share.
TIME_RATIO_CEILING = 0.5

#: Both re-clusters the time gate compares are replayed this many times,
#: each from its own cache state, and the best time kept: one scheduler
#: stall in a re-cluster of a few milliseconds must not fail the gate.
REPLAYS = 3

TIMINGS_PATH = Path(__file__).parent / "perf_online_timings.json"

GRID = dict(chunk_bytes=64 * 1024, n_chunks=32, sample_shift=3)


def _record_timings(name, gate=f"speedup >= {SPEEDUP_FLOOR}x", **fields):
    record_timings(
        TIMINGS_PATH,
        name,
        {k: (v, infer_unit(k)) for k, v in fields.items()},
        gate=gate,
    )


class _AlwaysPhase(PhaseDetector):
    """Force a re-cluster at every sealed epoch (worst case)."""

    def update(self, curves):
        return True


class _LaneLog(WhirlToolAnalyzer):
    """Logs (intervals, lanes, seconds) of every re-cluster.

    Lanes are the rows passed to the analyzer's ``combine_rate_rows``,
    counted by the wrapper the test installs into ``lanes``.
    """

    def __init__(self, lanes):
        self.lanes = lanes
        self.log = []

    def cluster_incremental(self, profile, cache):
        before, t0 = self.lanes[0], time.perf_counter()
        result = super().cluster_incremental(profile, cache)
        self.log.append(
            (profile.n_intervals, self.lanes[0] - before, time.perf_counter() - t0)
        )
        return result


def _replay(analyzer, profile, cached_epochs):
    """Best-of-``REPLAYS`` (lanes, seconds, pools) of re-clustering ``profile``.

    Each replay starts from a cache that has clustered only the first
    ``cached_epochs`` epochs (0: a cold cache), the state a streamed
    re-cluster at that epoch starts from.
    """
    prefix = CallpointProfile(
        curves={cp: series[:cached_epochs] for cp, series in profile.curves.items()},
        names=profile.names,
        n_intervals=cached_epochs,
    )
    best = None
    for __ in range(REPLAYS):
        cache = IncrementalClusterCache()
        if cached_epochs:
            analyzer.cluster_incremental(prefix, cache)
        analyzer.log.clear()
        pools = analyzer.cluster_incremental(profile, cache)
        ((__, lanes, seconds),) = analyzer.log
        if best is None or seconds < best[1]:
            best = (lanes, seconds, pools)
    return best


def _make_trace(seed=31):
    n = EPOCH_RECORDS * EPOCHS
    rng = np.random.default_rng(seed)
    regions = rng.integers(0, N_REGIONS, n).astype(np.int32)
    # Distinct per-region working sets so the dendrogram is non-trivial,
    # plus a drifting hot set so epochs actually differ.
    drift = (np.arange(n) // EPOCH_RECORDS) * 7
    lines = rng.integers(0, 1 << 10, n) + regions * (1 << 12) + drift
    return lines.astype(np.int64), regions


class TestPerfOnline:
    def test_perf_smoke_incremental_vs_scratch(self):
        """CI gate: per-epoch update >= SPEEDUP_FLOOR x cheaper."""
        lines, regions = _make_trace()
        n = len(lines)
        ipr = 4.0  # instructions per record

        def gen():
            for start in range(0, n, EPOCH_RECORDS):
                stop = start + EPOCH_RECORDS
                yield TraceChunk(
                    addrs=lines[start:stop] * 64, regions=regions[start:stop]
                )

        tool = OnlineWhirlTool(
            epoch_records=EPOCH_RECORDS,
            instructions_per_record=ipr,
            detector=_AlwaysPhase(),
            **GRID,
        )
        tool.start(IterableSource(gen()))
        t_incremental = 0.0
        for chunk in IterableSource(gen()).chunks(1 << 16):
            t0 = time.perf_counter()
            reports = tool.push(chunk)
            t_incremental += time.perf_counter() - t0
            assert all(r.reclustered for r in reports)
        t0 = time.perf_counter()
        streamed = tool.finish()
        t_incremental += time.perf_counter() - t0
        assert tool.sealed_epochs == EPOCHS

        # From-scratch per epoch: re-profile the whole prefix with the
        # same streaming engine and re-cluster it — the cost the online
        # path avoids.
        analyzer = WhirlToolAnalyzer()
        t_scratch = 0.0
        for k in range(1, EPOCHS + 1):
            stop = k * EPOCH_RECORDS
            prefix = ArraySource(
                addrs=lines[:stop] * 64,
                regions=regions[:stop],
                instructions=stop * ipr,
            )
            t0 = time.perf_counter()
            curves = StreamingStackProfiler(**GRID).profile_source(
                prefix, n_intervals=k, chunk_records=1 << 16
            )
            analyzer.cluster(
                CallpointProfile(curves=curves, n_intervals=k)
            )
            t_scratch += time.perf_counter() - t0

        # Exactness: the streamed pools equal the offline oracle over
        # the full capture (equal-width intervals coincide with the
        # record-count epochs here).
        want = online_pools_reference(
            ArraySource(
                addrs=lines * 64, regions=regions, instructions=n * ipr
            ),
            n_intervals=EPOCHS,
            **GRID,
        )
        assert streamed.callpoints == want.callpoints
        assert streamed.merges == want.merges

        mean_inc = t_incremental / EPOCHS
        mean_scr = t_scratch / EPOCHS
        speedup = mean_scr / mean_inc
        _record_timings(
            "online_16_epochs_4M",
            incremental_s=t_incremental,
            scratch_s=t_scratch,
            mean_epoch_incremental_s=mean_inc,
            mean_epoch_scratch_s=mean_scr,
            speedup=speedup,
        )
        print(
            f"\n[perf] online whirlpool {EPOCHS} epochs x {EPOCH_RECORDS} "
            f"records: {mean_inc*1e3:.1f} ms/epoch incremental vs "
            f"{mean_scr*1e3:.1f} ms/epoch from scratch ({speedup:.1f}x) "
            "— exact"
        )
        assert speedup >= SPEEDUP_FLOOR, (
            f"incremental epoch update is only {speedup:.1f}x cheaper than "
            f"from-scratch (floor {SPEEDUP_FLOOR}x)"
        )

    def test_perf_smoke_last_recluster_replays(self, monkeypatch):
        """CI gate: the last epoch's re-cluster computes only its new lanes."""
        lines, regions = _make_trace()
        lanes = [0]
        combine = analyzer_module.combine_rate_rows

        def counting_combine(r1, r2):
            lanes[0] += len(r1)
            return combine(r1, r2)

        monkeypatch.setattr(analyzer_module, "combine_rate_rows", counting_combine)
        analyzer = _LaneLog(lanes)
        tool = OnlineWhirlTool(
            epoch_records=EPOCH_RECORDS,
            instructions_per_record=4.0,
            detector=_AlwaysPhase(),
            analyzer=analyzer,
            **GRID,
        )
        tool.start(IterableSource(iter(())))
        for start in range(0, len(lines), EPOCH_RECORDS):
            stop = start + EPOCH_RECORDS
            tool.push(TraceChunk(addrs=lines[start:stop] * 64, regions=regions[start:stop]))
        pushed = list(analyzer.log)
        assert [n for n, __, __ in pushed] == list(range(1, EPOCHS + 1))
        __, last_lanes, last_s = pushed[-1]
        profile = tool.profile()
        replay_lanes, replay_s, replayed = _replay(analyzer, profile, EPOCHS - 1)
        assert replay_lanes == last_lanes
        assert replayed.merges == tool.pools.merges
        cold_lanes, cold_s, cold = _replay(analyzer, profile, 0)
        assert cold.merges == tool.pools.merges
        share = last_lanes / cold_lanes
        time_ratio = replay_s / cold_s
        per_epoch = {}
        for n, n_lanes, seconds in pushed:
            per_epoch[f"epoch{n:02d}_lanes"] = n_lanes
            per_epoch[f"epoch{n:02d}_s"] = seconds
        _record_timings(
            "online_last_recluster_replay",
            gate=(
                f"lane share <= {REPLAY_SHARE_CEILING}, "
                f"time ratio <= {TIME_RATIO_CEILING}"
            ),
            **per_epoch,
            last_recluster_lanes=last_lanes,
            last_recluster_s=last_s,
            last_replay_s=replay_s,
            cold_recluster_lanes=cold_lanes,
            cold_recluster_s=cold_s,
            lane_ratio=share,
            time_ratio=time_ratio,
        )
        print(
            f"\n[perf] online re-cluster at epoch {EPOCHS}: {last_lanes} lanes "
            f"({last_s*1e3:.1f} ms streamed, {replay_s*1e3:.1f} ms replayed) vs "
            f"{cold_lanes} lanes ({cold_s*1e3:.1f} ms) from a cold cache — "
            f"share {share:.3f}, time ratio {time_ratio:.2f}"
        )
        assert share <= REPLAY_SHARE_CEILING, (
            f"the last re-cluster evaluated {last_lanes} of a cold re-cluster's "
            f"{cold_lanes} lanes ({share:.2f} > {REPLAY_SHARE_CEILING})"
        )
        assert time_ratio <= TIME_RATIO_CEILING, (
            f"the last re-cluster took {replay_s*1e3:.1f} ms, {time_ratio:.2f} of a "
            f"cold re-cluster's {cold_s*1e3:.1f} ms (> {TIME_RATIO_CEILING})"
        )
