"""Online Whirlpool vs the offline pipeline: bit-identical at completion.

The tentpole contract: streaming a sized source to completion through
:class:`OnlineWhirlTool` (any chunk size, any interval count, any
sample shift) produces pools *exactly* equal — merge order, distances,
tie-breaks — to ``online_pools_reference``, the offline
profile-then-cluster pipeline.  Likewise
:meth:`WhirlToolAnalyzer.cluster_incremental` replaying cached pool rows
and pair terms must reproduce the serial ``cluster_reference``
float-for-float on every growing prefix of a profile.  Both oracles live
under ``tests/oracles/``.
"""

import io
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.online import online_pools_reference
from oracles.whirltool import cluster_reference

from repro.cli import main
from repro.core.whirltool import (
    CallpointProfile,
    IncrementalClusterCache,
    OnlineWhirlTool,
    PhaseDetector,
    WhirlToolAnalyzer,
)
from repro.core.whirltool.online import EpochReport
from repro.curves import MissCurve
from repro.curves.reuse import StackDistanceProfiler
from repro.ingest import ArraySource, IterableSource, TraceChunk
from repro.ingest.watch import follow_lines, open_stream_source, run_watch


def assert_same_result(got, want):
    """Exact ClusteringResult equality: same floats, not just close."""
    assert got.callpoints == want.callpoints
    assert len(got.merges) == len(want.merges)
    for (ga, gb, gd), (wa, wb, wd) in zip(got.merges, want.merges):
        assert ga == wa
        assert gb == wb
        assert gd == wd


def make_source(seed, n=600, n_regions=4, instructions=None):
    rng = np.random.default_rng(seed)
    regions = rng.integers(0, n_regions, n).astype(np.int32)
    # Give regions distinct locality so the dendrogram is non-trivial.
    addrs = (rng.integers(0, 30, n) + regions * 64) * 64
    return ArraySource(
        addrs=addrs.astype(np.int64),
        regions=regions,
        instructions=float(n * 9.0 if instructions is None else instructions),
    )


SMALL_GRID = dict(chunk_bytes=512, n_chunks=9)


class TestOnlineEqualsOffline:
    """OnlineWhirlTool.run == online_pools_reference (the oracle pin)."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 200),
        chunk=st.sampled_from([1, 7, 64, 1 << 21]),
        n_intervals=st.sampled_from([1, 4, 16]),
        shift=st.sampled_from([0, 3]),
    )
    def test_stream_to_completion_bit_identical(
        self, seed, chunk, n_intervals, shift
    ):
        source = make_source(seed)
        want = online_pools_reference(
            source, n_intervals=n_intervals, sample_shift=shift, **SMALL_GRID
        )
        tool = OnlineWhirlTool(
            n_intervals=n_intervals, sample_shift=shift, **SMALL_GRID
        )
        got = tool.run(source, chunk_records=chunk)
        assert_same_result(got, want)
        assert got.assignments(3) == want.assignments(3)

    def test_more_intervals_than_records(self):
        source = make_source(3, n=5)
        want = online_pools_reference(source, n_intervals=16, **SMALL_GRID)
        got = OnlineWhirlTool(n_intervals=16, **SMALL_GRID).run(
            source, chunk_records=2
        )
        assert_same_result(got, want)

    def test_mapping_threads_through(self):
        source = make_source(4, n_regions=5)
        mapping = {0: 0, 1: 1, 2: 1, 3: 0, 4: 2}
        want = online_pools_reference(
            source, n_intervals=4, mapping=mapping, **SMALL_GRID
        )
        got = OnlineWhirlTool(n_intervals=4, **SMALL_GRID).run(
            source, chunk_records=53, mapping=mapping
        )
        assert_same_result(got, want)

    def test_intermediate_epochs_reported(self):
        source = make_source(5)
        tool = OnlineWhirlTool(n_intervals=4, **SMALL_GRID)
        tool.start(source)
        reports = []
        for chunk in source.chunks(37):
            reports.extend(tool.push(chunk))
        tool.finish()
        assert [r.epoch for r in reports] == [0, 1, 2, 3]
        assert all(isinstance(r, EpochReport) for r in reports)
        # Epoch 0 always clusters (no baseline yet).
        assert reports[0].reclustered and not reports[0].phase_change
        assert reports[0].assignments is not None
        assert tool.sealed_epochs == 4


def profile_prefix(profile, k):
    """The first ``k`` intervals of every series."""
    return CallpointProfile(
        curves={cp: s[:k] for cp, s in profile.curves.items()},
        names=dict(profile.names),
        n_intervals=k,
    )


def make_profile(seed, n_intervals=8, n_regions=4, n=800):
    source = make_source(seed, n=n, n_regions=n_regions)
    chunk = next(source.chunks(1 << 21))
    lines = chunk.addrs // 64
    curves = StackDistanceProfiler(**SMALL_GRID).profile(
        lines, chunk.regions, source.instructions, n_intervals=n_intervals
    )
    return CallpointProfile(curves=curves, n_intervals=n_intervals)


def structure(result):
    """The merge sequence of a clustering, without its distances."""
    return [(a, b) for a, b, __ in result.merges]


def key_leaves(key):
    """The callpoints under a structure-cache key."""
    if isinstance(key, tuple):
        return key_leaves(key[0]) | key_leaves(key[1])
    return frozenset({key})


def spy_kernels(monkeypatch):
    """Count rows passed to ``combine_rate_rows`` and hulls computed."""
    from repro.core.whirltool import analyzer

    counts = {"lanes": 0, "hulls": 0}
    combine = analyzer.combine_rate_rows
    hull = analyzer._lower_convex_hull_fast

    def counting_combine(r1, r2):
        counts["lanes"] += len(r1)
        return combine(r1, r2)

    def counting_hull(values):
        counts["hulls"] += 1
        return hull(values)

    monkeypatch.setattr(analyzer, "combine_rate_rows", counting_combine)
    monkeypatch.setattr(analyzer, "_lower_convex_hull_fast", counting_hull)
    return counts


class TestIncrementalCluster:
    """cluster_incremental replays cached rows; cluster_reference is its oracle."""

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 100), n_intervals=st.sampled_from([1, 3, 8]))
    def test_cold_cache_matches_reference(self, seed, n_intervals):
        profile = make_profile(seed, n_intervals=n_intervals)
        analyzer = WhirlToolAnalyzer()
        got = analyzer.cluster_incremental(profile, IncrementalClusterCache())
        assert_same_result(got, cluster_reference(profile))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 100))
    def test_growing_prefixes_one_cache(self, seed):
        # The online replay: one persistent cache, re-clustered at each
        # prefix; every step must equal the serial oracle.
        profile = make_profile(seed, n_intervals=8)
        analyzer = WhirlToolAnalyzer()
        cache = IncrementalClusterCache()
        for k in (1, 2, 4, 7, 8):
            prefix = profile_prefix(profile, k)
            got = analyzer.cluster_incremental(prefix, cache)
            assert_same_result(got, cluster_reference(prefix))
        # The cache really was incremental: terms cover all 8 intervals.
        assert all(len(v) == 8 for v in cache.terms.values())

    def test_changing_tree_matches_reference_at_every_step(self):
        # Seed 1 over 5 regions re-shapes its tree between prefixes, so
        # pools with the same members come back under other structures.
        profile = make_profile(1, n_intervals=8, n_regions=5)
        analyzer = WhirlToolAnalyzer()
        cache = IncrementalClusterCache()
        trees = []
        for k in range(1, 9):
            prefix = profile_prefix(profile, k)
            got = analyzer.cluster_incremental(prefix, cache)
            assert_same_result(got, cluster_reference(prefix))
            trees.append(structure(got))
        assert any(a != b for a, b in zip(trees, trees[1:]))

    def test_cache_holds_only_the_current_tree(self):
        profile = make_profile(1, n_intervals=8, n_regions=5)
        analyzer = WhirlToolAnalyzer()
        cache = IncrementalClusterCache()
        n_leaves = len(profile.curves)
        for k in range(1, 9):
            got = analyzer.cluster_incremental(profile_prefix(profile, k), cache)
            tree = {frozenset({cp}) for cp in got.callpoints}
            tree |= {a | b for a, b in structure(got)}
            assert len(cache.pools) == 2 * n_leaves - 1
            assert {key_leaves(key) for key in cache.pools} == tree
            assert len(cache.terms) == (n_leaves - 1) ** 2
            for a, b in cache.terms:
                assert a in cache.pools and b in cache.pools
            assert all(len(v) == k for v in cache.terms.values())
            assert all(len(r) == len(h) == k for r, h in cache.pools.values())

    def test_warm_recluster_evaluates_only_new_epochs(self, monkeypatch):
        # Seed 0's tree is the same over 7 and 8 intervals.
        profile = make_profile(0, n_intervals=8)
        analyzer = WhirlToolAnalyzer()
        cache = IncrementalClusterCache()
        before = analyzer.cluster_incremental(profile_prefix(profile, 7), cache)
        want = cluster_reference(profile)
        counts = spy_kernels(monkeypatch)
        got = analyzer.cluster_incremental(profile, cache)
        assert structure(got) == structure(before)
        assert_same_result(got, want)
        n_leaves = len(profile.curves)
        # One new row per pool, and one lane per evaluated pair whose two
        # pools are both active in the new epoch.
        assert counts["hulls"] == 2 * n_leaves - 1

        def active(key):
            return any(profile.curves[cp][7].accesses > 0 for cp in key_leaves(key))

        pair_lanes = sum(active(a) and active(b) for a, b in cache.terms)
        assert counts["lanes"] == (n_leaves - 1) + pair_lanes
        # Replaying the same profile again evaluates nothing.
        counts.update(lanes=0, hulls=0)
        again = analyzer.cluster_incremental(profile, cache)
        assert_same_result(again, got)
        assert counts == {"lanes": 0, "hulls": 0}

    def test_late_callpoint_only_adds_keys(self, monkeypatch):
        # A region first seen at interval 4 arrives with backfilled
        # zero-access intervals (as OnlineWhirlTool builds them).
        profile = make_profile(2, n_intervals=8, n_regions=5)
        late = max(profile.curves)
        early = CallpointProfile(
            curves={cp: s[:4] for cp, s in profile.curves.items() if cp != late},
            n_intervals=4,
        )
        zero = [
            MissCurve.zero(c.n_chunks, c.chunk_bytes, c.instructions)
            for c in profile.curves[late][:4]
        ]
        grown = CallpointProfile(
            curves={**profile.curves, late: zero + profile.curves[late][4:]},
            n_intervals=8,
        )
        analyzer = WhirlToolAnalyzer()
        cache = IncrementalClusterCache()
        analyzer.cluster_incremental(early, cache)
        seen = {key: cache.seen(key) for key in cache.pools}
        want = cluster_reference(grown)
        counts = spy_kernels(monkeypatch)
        got = analyzer.cluster_incremental(grown, cache)
        assert_same_result(got, want)
        # The early leaves kept their rows; every pool computed only the
        # intervals its key had not seen.
        assert set(early.curves) <= set(seen) & set(cache.pools)
        assert counts["hulls"] == sum(8 - seen.get(key, 0) for key in cache.pools)

    def test_shrinking_profile_drops_cache(self):
        profile = make_profile(4, n_intervals=8)
        analyzer = WhirlToolAnalyzer()
        cache = IncrementalClusterCache()
        analyzer.cluster_incremental(profile, cache)
        prefix = profile_prefix(profile, 3)
        got = analyzer.cluster_incremental(prefix, cache)
        assert_same_result(got, cluster_reference(prefix))
        assert all(len(r) == 3 for r, __ in cache.pools.values())

    def test_grid_change_invalidates(self):
        analyzer = WhirlToolAnalyzer()
        cache = IncrementalClusterCache()
        a = make_profile(1, n_intervals=4)
        analyzer.cluster_incremental(a, cache)
        chunk = next(make_source(2).chunks(1 << 21))
        curves = StackDistanceProfiler(chunk_bytes=1024, n_chunks=6).profile(
            chunk.addrs // 64, chunk.regions, 5400.0, n_intervals=4
        )
        b = CallpointProfile(curves=curves, n_intervals=4)
        got = analyzer.cluster_incremental(b, cache)
        assert_same_result(got, cluster_reference(b))
        assert cache.grid == (1024, 6)

    def test_single_leaf_falls_back(self):
        # One leaf is its own tree: no merges, and a warm cache, which
        # holds another profile's tree, is dropped.
        profile = make_profile(3, n_regions=1)
        analyzer = WhirlToolAnalyzer()
        cache = IncrementalClusterCache()
        analyzer.cluster_incremental(make_profile(3), cache)
        assert cache.pools and cache.terms and cache.grid is not None
        got = analyzer.cluster_incremental(profile, cache)
        assert got.merges == []
        assert_same_result(got, cluster_reference(profile))
        assert cache.pools == {} and cache.terms == {} and cache.grid is None


class TestPhaseDetector:
    def curves_for(self, lines, instructions, n=400):
        prof = StackDistanceProfiler(**SMALL_GRID)
        regions = np.zeros(len(lines), dtype=np.int32)
        return {
            0: prof.profile(lines, regions, instructions, n_intervals=1)[0][0]
        }

    def test_first_epoch_is_baseline(self):
        det = PhaseDetector()
        lines = np.arange(100, dtype=np.int64) % 7
        assert det.update(self.curves_for(lines, 1000.0)) is False

    def test_steady_traffic_no_trigger(self):
        det = PhaseDetector()
        lines = np.arange(400, dtype=np.int64) % 11
        det.update(self.curves_for(lines, 4000.0))
        assert det.update(self.curves_for(lines, 4000.0)) is False

    def test_intensity_shift_triggers(self):
        det = PhaseDetector(rel_threshold=0.5)
        lines = np.arange(400, dtype=np.int64) % 11
        det.update(self.curves_for(lines, 4000.0))
        # Same accesses over 4x the instructions: APKI drops 4x.
        assert det.update(self.curves_for(lines, 16000.0)) is True

    def test_region_appearance_triggers(self):
        det = PhaseDetector()
        prof = StackDistanceProfiler(**SMALL_GRID)
        lines = np.arange(200, dtype=np.int64) % 9
        one = prof.profile(
            lines, np.zeros(200, dtype=np.int32), 2000.0, n_intervals=1
        )
        two = prof.profile(
            lines, (np.arange(200) % 2).astype(np.int32), 2000.0, n_intervals=1
        )
        det.update({rid: s[0] for rid, s in one.items()})
        assert det.update({rid: s[0] for rid, s in two.items()}) is True

    def test_validation(self):
        with pytest.raises(ValueError, match="rel_threshold"):
            PhaseDetector(rel_threshold=0.0)
        with pytest.raises(ValueError, match="probe_fraction"):
            PhaseDetector(probe_fraction=1.5)


def unbounded_copy(source, chunk_records=97):
    """Re-serve a sized source as an unbounded generator source."""

    def gen():
        yield from source.chunks(chunk_records)

    return IterableSource(
        gen(),
        line_bytes=source.line_bytes,
        region_names=dict(source.region_names),
    )


class TestUnboundedSources:
    def test_unbounded_round_trip(self):
        source = make_source(7, n=1000)
        tool = OnlineWhirlTool(epoch_records=128, **SMALL_GRID)
        result = tool.run(unbounded_copy(source), chunk_records=64)
        # 1000 records at 128/epoch: 7 full epochs + a partial eighth.
        assert tool.sealed_epochs == 8
        assert result is tool.pools
        assert set(result.assignments(3)) == {0, 1, 2, 3}

    def test_unbounded_matches_any_chunking(self):
        # Epoch bounds derive from epoch_records, not arrival chunking,
        # and the profiler is chunk-size independent: identical pools.
        source = make_source(8, n=700)
        results = []
        for chunk in (1, 13, 256):
            tool = OnlineWhirlTool(epoch_records=100, **SMALL_GRID)
            results.append(
                tool.run(unbounded_copy(source, 311), chunk_records=chunk)
            )
        assert_same_result(results[0], results[1])
        assert_same_result(results[0], results[2])

    def test_trailing_partial_epoch_sealed_at_finish(self):
        source = make_source(9, n=250)
        tool = OnlineWhirlTool(epoch_records=100, **SMALL_GRID)
        tool.start(unbounded_copy(source))
        reports = []
        for chunk in unbounded_copy(source).chunks(90):
            reports.extend(tool.push(chunk))
        assert [r.end_record for r in reports] == [100, 200]
        tool.finish()
        assert tool.sealed_epochs == 3  # 100 + 100 + the trailing 50

    def test_offline_oracle_rejects_unbounded(self):
        with pytest.raises(ValueError, match="sized, replayable"):
            online_pools_reference(
                unbounded_copy(make_source(1)), instructions=1000.0
            )

    def test_empty_unbounded_stream_rejected(self):
        tool = OnlineWhirlTool(**SMALL_GRID)
        tool.start(IterableSource(iter(())))
        with pytest.raises(ValueError, match="source yielded no records"):
            tool.finish()


class TestLifecycleErrors:
    def test_push_before_start(self):
        with pytest.raises(ValueError, match="start"):
            OnlineWhirlTool().push(
                TraceChunk(addrs=np.array([64], dtype=np.int64))
            )

    def test_push_after_finish(self):
        source = make_source(2, n=50)
        tool = OnlineWhirlTool(n_intervals=2, **SMALL_GRID)
        tool.run(source, chunk_records=10)
        with pytest.raises(ValueError, match="finished"):
            tool.push(TraceChunk(addrs=np.array([64], dtype=np.int64)))

    def test_sized_overrun_rejected(self):
        source = make_source(2, n=50)
        tool = OnlineWhirlTool(n_intervals=2, **SMALL_GRID)
        tool.start(source)
        for chunk in source.chunks(50):
            tool.push(chunk)
        with pytest.raises(ValueError, match="more than its declared"):
            tool.push(TraceChunk(addrs=np.array([64], dtype=np.int64)))

    def test_sized_underrun_rejected(self):
        source = make_source(2, n=50)
        tool = OnlineWhirlTool(n_intervals=2, **SMALL_GRID)
        tool.start(source)
        tool.push(next(source.chunks(20)))
        with pytest.raises(ValueError, match="declared"):
            tool.finish()

    def test_zero_record_sized_source_rejected(self):
        tool = OnlineWhirlTool(**SMALL_GRID)
        with pytest.raises(ValueError, match="source yielded no records"):
            tool.start(
                ArraySource(
                    addrs=np.array([], dtype=np.int64), instructions=10.0
                )
            )

    def test_missing_instructions_rejected(self):
        tool = OnlineWhirlTool(**SMALL_GRID)
        with pytest.raises(ValueError, match="instruction"):
            tool.start(ArraySource(addrs=np.array([64, 128], dtype=np.int64)))


def write_csv(path, n=900, n_regions=3, seed=0):
    rng = np.random.default_rng(seed)
    with open(path, "w") as f:
        f.write("addr,region\n")
        for i in range(n):
            region = int(rng.integers(0, n_regions))
            addr = (int(rng.integers(0, 40)) + region * 64) * 64
            f.write(f"{addr},{region}\n")


#: Small text captures whose header or region columns are irregular.
TEXT_CAPTURES = {
    "attributed_then_bare.csv": "0x40,1\n0x80\n",
    "bare_then_attributed.csv": "0x40\n0x80,1\n",
    "odd_header.csv": "a,b\n0x40,1\n",
    "later_header.csv": "0x40,1\naddr,region\n",
    "attributed_then_bare.jsonl": '{"addr": 64, "region": 1}\n{"addr": 128}\n',
    "null_region.jsonl": '{"addr": 64, "region": null}\n',
}


class TestWatch:
    def test_follow_lines_sees_late_writes(self):
        class GrowingStream:
            # readline returns '' (EOF) until more data "arrives".
            def __init__(self):
                self.feeds = ["a\n", "", "b\n", "", ""]

            def readline(self):
                return self.feeds.pop(0) if self.feeds else ""

        slept = []
        got = list(
            follow_lines(
                GrowingStream(),
                poll_interval=0.25,
                idle_timeout=0.5,
                sleep=slept.append,
            )
        )
        assert got == ["a\n", "b\n"]
        assert slept  # it waited at EOF instead of stopping

    def test_follow_lines_buffers_partial_line(self):
        class TornWrite:
            def __init__(self):
                self.feeds = ["12", "8,0\n"]

            def readline(self):
                return self.feeds.pop(0) if self.feeds else ""

        got = list(
            follow_lines(TornWrite(), idle_timeout=0.5, sleep=lambda s: None)
        )
        assert got == ["128,0\n"]

    def test_stream_source_matches_sized_reader(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, n=400)
        streamed = open_stream_source(
            str(path), fmt="csv", idle_timeout=0.0, batch_records=64
        )
        from repro.ingest import open_trace_source

        sized = open_trace_source(str(path), fmt="csv")
        got = np.concatenate([c.addrs for c in streamed.chunks(64)])
        chunks = list(sized.chunks(1 << 21))
        want = np.concatenate([c.addrs for c in chunks])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("name", list(TEXT_CAPTURES))
    def test_stream_source_reads_text_like_sized_reader(self, tmp_path, name):
        # Either both readers raise or both give the same records.
        from repro.ingest import open_trace_source

        path = tmp_path / name
        path.write_text(TEXT_CAPTURES[name])
        fmt = path.suffix[1:]

        def records(source):
            chunks = list(source.chunks(64))
            addrs = np.concatenate([c.addrs for c in chunks])
            regions = [c.regions for c in chunks]
            if any(r is None for r in regions):
                assert all(r is None for r in regions)
                return addrs.tolist(), None
            return addrs.tolist(), np.concatenate(regions).tolist()

        def outcome(open_source):
            try:
                return records(open_source())
            except ValueError:
                return "raises"

        sized = outcome(lambda: open_trace_source(str(path), fmt=fmt))
        streamed = outcome(
            lambda: open_stream_source(
                str(path), fmt=fmt, idle_timeout=0.0, batch_records=1
            )
        )
        assert streamed == sized

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="followable"):
            open_stream_source("t.bin", fmt="rtrace")

    def test_run_watch_reports_epochs(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, n=900)
        source = open_stream_source(str(path), fmt="csv", idle_timeout=0.0)
        out = io.StringIO()
        code = run_watch(source, epoch_records=256, n_pools=2, out=out, **SMALL_GRID)
        assert code == 0
        text = out.getvalue()
        assert "epoch 0" in text and "epoch 2" in text
        assert "end of stream: 4 epochs" in text
        assert "pool 0:" in text

    def test_watch_cli_on_file(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        write_csv(path, n=600)
        code = main(
            [
                "ingest", "watch", str(path),
                "--format", "csv",
                "--epoch-records", "200",
                "--idle-timeout", "0",
                "--pools", "2",
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "epoch 0" in text
        assert "end of stream: 3 epochs" in text

    def test_validate_cli_on_stdin(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "t.csv"
        write_csv(path, n=120)
        monkeypatch.setattr("sys.stdin", open(path))
        code = main(["ingest", "validate", "-", "--format", "csv"])
        assert code == 0
        text = capsys.readouterr().out
        assert "120 records parse cleanly" in text
        assert "unbounded" in text

    def test_stream_cli_requires_format(self, capsys):
        code = main(["ingest", "watch", "-"])
        assert code == 2
        assert "--format" in capsys.readouterr().err


class TestFollowRotation:
    """Log rotation and truncation handling in follow_lines (path=...)."""

    def _follow(self, path, hooks, idle_timeout=3.0):
        """Follow ``path``, running one hook per EOF poll (then no-ops)."""
        stream = open(path)
        hooks = iter(hooks)

        def sleeping(seconds):
            hook = next(hooks, None)
            if hook is not None:
                hook()

        try:
            return list(
                follow_lines(
                    stream,
                    poll_interval=1.0,
                    idle_timeout=idle_timeout,
                    sleep=sleeping,
                    path=path,
                )
            )
        finally:
            stream.close()

    def test_rotation_reopens_the_new_file(self, tmp_path):
        path = tmp_path / "t.log"
        path.write_text("a\nb\n")

        def rotate():
            # logrotate-style: rename away, recreate under the old name.
            path.rename(tmp_path / "t.log.1")
            path.write_text("c\nd\n")

        got = self._follow(path, [rotate])
        assert got == ["a\n", "b\n", "c\n", "d\n"]

    def test_truncation_rewinds_to_start(self, tmp_path):
        path = tmp_path / "t.log"
        path.write_text("aaaa\nbbbb\n")

        def truncate():
            # In-place truncation: same inode, smaller file.
            path.write_text("x\n")

        got = self._follow(path, [truncate])
        assert got == ["aaaa\n", "bbbb\n", "x\n"]

    def test_rotation_with_vanished_successor_keeps_following(self, tmp_path):
        # Rename with no replacement yet: the follower must not crash,
        # and must pick the successor up once it appears.
        path = tmp_path / "t.log"
        path.write_text("a\n")

        def rename_away():
            path.rename(tmp_path / "t.log.1")

        def recreate():
            path.write_text("b\n")

        got = self._follow(path, [rename_away, recreate])
        assert got == ["a\n", "b\n"]

    def test_plain_growth_is_not_mistaken_for_rotation(self, tmp_path):
        path = tmp_path / "t.log"
        path.write_text("a\n")

        def append():
            with open(path, "a") as f:
                f.write("b\n")

        got = self._follow(path, [append])
        assert got == ["a\n", "b\n"]

    def test_streams_without_files_skip_the_checks(self):
        # path=None (pipes, test doubles): identical legacy behavior.
        class Fake:
            def __init__(self):
                self.feeds = ["a\n", ""]

            def readline(self):
                return self.feeds.pop(0) if self.feeds else ""

        got = list(
            follow_lines(Fake(), idle_timeout=0.5, sleep=lambda s: None)
        )
        assert got == ["a\n"]

    def test_stream_source_follows_rotation(self, tmp_path):
        # End to end through open_stream_source: records from both the
        # original file and its rotated successor land in the chunks.
        path = tmp_path / "t.csv"
        path.write_text("64,0\n128,0\n")
        source = open_stream_source(
            str(path), fmt="csv", idle_timeout=0.2, poll_interval=0.05,
            batch_records=8,
        )

        import threading

        def rotate_soon():
            time.sleep(0.08)
            path.rename(tmp_path / "t.csv.1")
            path.write_text("192,0\n256,0\n")

        worker = threading.Thread(target=rotate_soon)
        worker.start()
        try:
            addrs = np.concatenate([c.addrs for c in source.chunks(8)])
        finally:
            worker.join()
        assert sorted(addrs.tolist()) == [64, 128, 192, 256]
