"""Profile-cache correctness: round-trips, stale files, format versions.

The on-disk cache must be invisible: a load must return exactly what a
cold profiling run computes, and any stale/partial/foreign file must
fall back to re-profiling rather than crash (a killed campaign worker
can leave such files behind).  The in-process memo must be invisible
too: shared curves are read-only, and a replaced payload is re-read.
"""

import hashlib
import os
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.curves import miss_curve
from repro.curves.miss_curve import MissCurve, prime_hull_caches
from repro.curves.reuse import StackDistanceProfiler
from repro.sim import profiling
from repro.sim.profiling import profile_vcs
from repro.store import ArtifactStore, load_profile, npz_arrays, publish_profile
from repro.store.mmapzip import is_mapped
from repro.store.profiles import LAYOUT, encode_payload, verify_profile_payload
from repro.workloads.trace import Trace


def make_trace(lines, regions, instructions):
    return Trace(
        lines=np.asarray(lines, dtype=np.int64),
        regions=np.asarray(regions, dtype=np.int32),
        instructions=instructions,
    )


def assert_curves_equal(a, b):
    assert set(a) == set(b)
    for vc in a:
        assert len(a[vc]) == len(b[vc])
        for ca, cb in zip(a[vc], b[vc]):
            assert np.array_equal(ca.misses, cb.misses)
            assert ca.accesses == cb.accesses
            assert ca.instructions == cb.instructions
            assert ca.chunk_bytes == cb.chunk_bytes


@st.composite
def trace_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=300))
    lines = draw(
        st.lists(
            st.integers(min_value=0, max_value=255), min_size=n, max_size=n
        )
    )
    regions = draw(
        st.lists(st.integers(min_value=0, max_value=7), min_size=n, max_size=n)
    )
    instructions = draw(st.floats(min_value=1.0, max_value=1e6))
    mapping = {
        rid: draw(st.integers(min_value=0, max_value=3))
        for rid in sorted(set(regions))
    }
    n_intervals = draw(st.integers(min_value=1, max_value=3))
    return lines, regions, instructions, mapping, n_intervals


class TestCacheRoundTrip:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(inputs=trace_inputs())
    def test_store_load_equals_cold_run(self, store_env, inputs):
        lines, regions, instructions, mapping, n_intervals = inputs
        trace = make_trace(lines, regions, instructions)
        kwargs = dict(
            mapping=mapping,
            chunk_bytes=1024,
            n_chunks=6,
            n_intervals=n_intervals,
        )
        # Each example gets its own store; hypothesis shrinks across
        # examples, so a shared fixture directory would alias entries.
        with tempfile.TemporaryDirectory() as root, mock.patch.dict(
            os.environ, {"REPRO_STORE_DIR": root}
        ):
            cold = profile_vcs(trace, use_cache=False, **kwargs)
            stored = profile_vcs(trace, use_cache=True, **kwargs)
            loaded = profile_vcs(trace, use_cache=True, **kwargs)
        assert_curves_equal(stored, cold)
        assert_curves_equal(loaded, cold)


def seed_cache(n_intervals=2):
    """Profile once with caching on; returns (trace, kwargs, cold, path)."""
    rng = np.random.default_rng(7)
    trace = make_trace(
        rng.integers(0, 64, size=200), rng.integers(0, 4, size=200), 5000.0
    )
    kwargs = dict(
        mapping={0: 0, 1: 0, 2: 1, 3: 1},
        chunk_bytes=1024,
        n_chunks=4,
        n_intervals=n_intervals,
    )
    cold = profile_vcs(trace, use_cache=False, **kwargs)
    profile_vcs(trace, use_cache=True, **kwargs)
    ((__, __, path),) = ArtifactStore().artifacts("profiles")
    return trace, kwargs, cold, path


def write_per_curve_layout(path, curves):
    """Write ``curves`` as the payload layout before :data:`LAYOUT`.

    One member per (VC, interval) curve, two per VC, and a format
    version instead of a layout tag.
    """
    payload = {
        "format_version": np.array(2, dtype=np.int64),
        "vc_ids": np.array(sorted(curves), dtype=np.int64),
    }
    for i, vc in enumerate(sorted(curves)):
        payload[f"a_{i}"] = np.array([c.accesses for c in curves[vc]])
        payload[f"i_{i}"] = np.array([c.instructions for c in curves[vc]])
        for t, c in enumerate(curves[vc]):
            payload[f"m_{i}_{t}"] = c.misses
    with open(path, "wb") as f:
        np.savez(f, **payload)


def count_profiles(monkeypatch):
    """Record every stack-distance profiling pass from now on."""
    calls = []
    real = StackDistanceProfiler.profile

    def counting(self, *args, **kwargs):
        calls.append(1)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(StackDistanceProfiler, "profile", counting)
    return calls


class TestStaleCache:
    def rewrite(self, path, mutate):
        data = dict(np.load(path))
        mutate(data)
        np.savez_compressed(path, **data)

    def test_missing_interval_arrays_fall_back(self, store_env):
        trace, kwargs, cold, path = seed_cache()
        # A stale/partial payload holding fewer intervals than its key
        # names must re-profile, not raise.
        self.rewrite(path, lambda d: d.update(misses=d["misses"][:, :1]))
        assert_curves_equal(profile_vcs(trace, use_cache=True, **kwargs), cold)

    def test_wrong_format_version_falls_back(self, store_env):
        trace, kwargs, cold, path = seed_cache()
        self.rewrite(
            path, lambda d: d.update(layout=np.array(999, dtype=np.int64))
        )
        assert_curves_equal(profile_vcs(trace, use_cache=True, **kwargs), cold)

    def test_legacy_file_without_version_key_is_regenerated(
        self, store_env, monkeypatch
    ):
        trace, kwargs, cold, path = seed_cache()
        # An entry of the earlier per-curve layout has no layout tag.  It
        # is profiled once more and republished in the current layout,
        # which every later load then serves.
        write_per_curve_layout(path, cold)
        profiling._MEMO.clear()
        profiles = count_profiles(monkeypatch)
        assert_curves_equal(profile_vcs(trace, use_cache=True, **kwargs), cold)
        assert int(np.load(path)["layout"]) == LAYOUT
        profiling._MEMO.clear()
        assert_curves_equal(profile_vcs(trace, use_cache=True, **kwargs), cold)
        assert len(profiles) == 1

    @pytest.mark.parametrize(
        "old, new",
        [(b"{'descr'", b"{'descX'"), (b"{'descr'", b"['descr'")],
        ids=["missing-key", "not-a-literal"],
    )
    def test_damaged_npy_header_reprofiles(
        self, store_env, monkeypatch, old, new
    ):
        trace, kwargs, cold, path = seed_cache()
        path.write_bytes(path.read_bytes().replace(old, new, 1))
        grid = (kwargs["chunk_bytes"], kwargs["n_intervals"])
        assert load_profile(path, *grid) is None
        profiling._MEMO.clear()
        profiles = count_profiles(monkeypatch)
        assert_curves_equal(profile_vcs(trace, use_cache=True, **kwargs), cold)
        assert len(profiles) == 1
        assert verify_profile_payload(path) is None  # republished
        assert_curves_equal(load_profile(path, *grid), cold)

    def test_garbage_file_falls_back(self, store_env):
        trace, kwargs, cold, path = seed_cache()
        path.write_bytes(b"not an npz file")
        assert_curves_equal(profile_vcs(trace, use_cache=True, **kwargs), cold)

    def test_store_writes_current_version(self, store_env):
        __, __, __, path = seed_cache()
        data = np.load(path)
        assert int(data["layout"]) == LAYOUT


class TestCommittedPile:
    def test_every_pile_file_is_current(self):
        # store_env hides the pile from profile_vcs, so a stale pile
        # would otherwise show only where the benchmarks read it.
        pile = Path(__file__).resolve().parents[1] / ".profile_cache"
        files = sorted(pile.glob("*.npz"))
        assert files
        for path in files:
            assert verify_profile_payload(path) is None, path.name
            assert int(npz_arrays(path)["layout"]) == LAYOUT, path.name


class TestFingerprint:
    def test_short_traces_with_equal_shape_do_not_collide(self, store_env):
        # Regression: the v1 fingerprint hashed lines[::257]/regions[::257],
        # so any two traces shorter than 257 accesses that agreed on their
        # first access, length, and instruction count shared a cache key —
        # profile_vcs silently returned the *wrong* cached curves.
        kwargs = dict(mapping={0: 0}, chunk_bytes=1024, n_chunks=4)
        a = make_trace([0, 1, 2, 3], [0, 0, 0, 0], 100.0)
        b = make_trace([0, 5, 9, 13], [0, 0, 0, 0], 100.0)
        cold_b = profile_vcs(b, use_cache=False, **kwargs)
        profile_vcs(a, use_cache=True, **kwargs)  # populate cache with a
        served = profile_vcs(b, use_cache=True, **kwargs)
        assert_curves_equal(served, cold_b)
        assert len(list(ArtifactStore().artifacts("profiles"))) == 2

    def test_digest_bytes_are_pinned(self):
        # Every committed fixture and store entry is named by these
        # bytes; hashing the arrays from a copied per-trace hash state
        # must give exactly the digests of hashing everything afresh.
        args = dict(chunk_bytes=1024, n_chunks=4, n_intervals=2, sample_shift=0)
        trace = make_trace([0, 1, 2, 3], [0, 0, 1, 1], 100.0)
        fresh = make_trace([0, 1, 2, 3], [0, 0, 1, 1], 100.0)
        one_vc = "1890b8bc31dbf4b30e75f42b108b04fb"
        for t, mapping, pinned in (
            (trace, {0: 0, 1: 1}, "f84c9e25af83f1cdce1a66f8232fd0f9"),
            (trace, {0: 0, 1: 0}, one_vc),
            (fresh, {0: 0, 1: 0}, one_vc),
        ):
            got = profiling._fingerprint(t, mapping, **args)
            assert got == pinned, (
                f"the profile-cache fingerprint changed (now {got}): if "
                "what it hashes changed on purpose, bump FORMAT_VERSION "
                "in repro/store/profiles.py and re-pin this digest"
            )

    def test_rtrace_digest_bytes_are_pinned(self, tmp_path):
        # Every .rtrace header and every stored trace is named by these
        # bytes, however the stream was chunked.
        from repro.ingest.formats import RTraceWriter

        lines = np.array([0, 1, 2, 3, 1 << 40], dtype=np.int64)
        regions = np.array([0, 0, 1, 1, -7], dtype=np.int32)
        for cuts in ((5,), (2, 5), (1, 3, 5)):
            writer = RTraceWriter(tmp_path / f"{len(cuts)}.rtrace", 64)
            lo = 0
            for hi in cuts:
                writer.append(lines[lo:hi], regions[lo:hi])
                lo = hi
            got = writer.close(instructions=100.0)["fingerprint"]
            assert got == "643fec6cc6fb9f92859fae56761639af", (
                f"the rtrace content fingerprint changed (now {got}): if "
                "what it hashes changed on purpose, bump _RTRACE_VERSION "
                "in repro/ingest/formats.py and re-pin this digest"
            )

    def test_arrays_hash_once_per_trace(self, monkeypatch):
        made = []
        real = hashlib.blake2b

        def counting(**kwargs):
            made.append(kwargs)
            return real(**kwargs)

        monkeypatch.setattr(hashlib, "blake2b", counting)
        trace = make_trace([0, 1, 2, 3], [0, 0, 1, 1], 100.0)
        for mapping in ({0: 0, 1: 1}, {0: 0, 1: 0}, {0: 1, 1: 0}):
            for n_intervals in (1, 2):
                profiling._fingerprint(trace, mapping, 1024, 4, n_intervals, 0)
        assert len(made) == 1

    def test_region_relabel_changes_fingerprint(self, store_env):
        lines = [0, 1, 2, 3]
        a = make_trace(lines, [0, 0, 1, 1], 100.0)
        b = make_trace(lines, [0, 1, 1, 1], 100.0)
        kwargs = dict(mapping={0: 0, 1: 1}, chunk_bytes=1024, n_chunks=4)
        cold_b = profile_vcs(b, use_cache=False, **kwargs)
        profile_vcs(a, use_cache=True, **kwargs)
        assert_curves_equal(profile_vcs(b, use_cache=True, **kwargs), cold_b)


class TestStoreBackedCache:
    """Profiles live in the artifact store; the fixture pile is read-only."""

    def seed(self, n_intervals=2):
        rng = np.random.default_rng(11)
        trace = make_trace(
            rng.integers(0, 64, size=200),
            rng.integers(0, 4, size=200),
            5000.0,
        )
        kwargs = dict(
            mapping={0: 0, 1: 0, 2: 1, 3: 1},
            chunk_bytes=1024,
            n_chunks=4,
            n_intervals=n_intervals,
        )
        return trace, kwargs

    def test_round_trip_with_provenance(self, store_env):
        trace, kwargs = self.seed()
        cold = profile_vcs(trace, use_cache=False, **kwargs)
        profile_vcs(trace, use_cache=True, **kwargs)
        loaded = profile_vcs(trace, use_cache=True, **kwargs)
        assert_curves_equal(loaded, cold)
        store = ArtifactStore()
        (artifact,) = list(store.artifacts("profiles"))
        meta = store.provenance("profiles", artifact[1])
        assert meta["builder"] == "repro.sim.profiling.profile_vcs"
        assert meta["inputs"]["n_records"] == 200
        assert meta["inputs"]["chunk_bytes"] == 1024

    def test_loads_are_memmapped_zero_copy(self, store_env):
        trace, kwargs = self.seed()
        profile_vcs(trace, use_cache=True, **kwargs)
        loaded = profile_vcs(trace, use_cache=True, **kwargs)
        for curves in loaded.values():
            for curve in curves:
                # A mapped view, not a private deserialized copy: this
                # is what lets N campaign workers share one page-cache
                # copy of every profile.
                assert not curve.misses.flags.writeable
                assert is_mapped(curve.misses)

    def test_legacy_fixture_fallback_reads_but_never_writes(
        self, store_env, tmp_path, monkeypatch
    ):
        # Seed a pile in the committed fixture layout (flat, compressed,
        # named by fingerprint), then point the fixture fallback at it.
        legacy = tmp_path / "fixtures"
        legacy.mkdir()
        trace, kwargs = self.seed()
        cold = profile_vcs(trace, use_cache=False, **kwargs)
        key = profiling._fingerprint(trace, sample_shift=0, **kwargs)
        np.savez_compressed(legacy / f"{key}.npz", **encode_payload(cold))
        monkeypatch.setattr(profiling, "_fixture_dir", lambda: legacy)

        served = profile_vcs(trace, use_cache=True, **kwargs)
        assert_curves_equal(served, cold)
        # Fixture hits are not re-published: the store would otherwise
        # duplicate the entire committed pile on first use.
        assert list(ArtifactStore().artifacts("profiles")) == []

    def test_clear_cache_clears_store_profiles(self, store_env):
        trace, kwargs = self.seed()
        profile_vcs(trace, use_cache=True, **kwargs)
        from repro.sim.profiling import clear_cache

        assert clear_cache() == 1
        assert list(ArtifactStore().artifacts("profiles")) == []
        # Stale sidecars would otherwise be reported by gc forever.
        assert ArtifactStore().gc(dry_run=True)["removed"] == []


def random_trace(seed, n=200):
    rng = np.random.default_rng(seed)
    return make_trace(
        rng.integers(0, 64, size=n), rng.integers(0, 4, size=n), 5000.0
    )


MEMO_KWARGS = dict(
    mapping={0: 0, 1: 0, 2: 1, 3: 1}, chunk_bytes=1024, n_chunks=4, n_intervals=2
)


def all_curves(curves):
    return [c for series in curves.values() for c in series]


class TestReadOnlyCurves:
    """Loaded curves and their cached hulls reject in-place writes."""

    def assert_read_only(self, curves):
        for curve in all_curves(curves):
            # In-place writes, made on purpose: numpy must reject them
            # at runtime, whichever path made the curve.
            with pytest.raises(ValueError):
                curve.misses[0] = -1.0
            with pytest.raises(ValueError):
                curve.convex_hull()[0] = -1.0

    def cold(self):
        return profile_vcs(random_trace(13), use_cache=False, **MEMO_KWARGS)

    def test_fixture_pile_load(self, tmp_path):
        # The committed pile is compressed, so loads take np.load.
        path = tmp_path / "fixture.npz"
        np.savez_compressed(path, **encode_payload(self.cold()))
        loaded = load_profile(path, 1024, 2)
        assert not any(is_mapped(c.misses) for c in all_curves(loaded))
        self.assert_read_only(loaded)

    def test_store_mmap_load(self, tmp_path):
        path = publish_profile(ArtifactStore(tmp_path), "ab" * 16, self.cold())
        loaded = load_profile(path, 1024, 2)
        assert all(is_mapped(c.misses) for c in all_curves(loaded))
        self.assert_read_only(loaded)

    def test_computed_curves_are_served_read_only(self, store_env):
        self.assert_read_only(profile_vcs(random_trace(13), **MEMO_KWARGS))

    def test_uncached_curves(self):
        self.assert_read_only(self.cold())

    @pytest.mark.parametrize(
        "values",
        [[5.0, 3.0, 3.0, 0.0], [5.0, 6.0, 2.0, -1.0]],
        ids=["normalized", "accumulated"],
    )
    def test_constructed_curves(self, values):
        given = np.array(values)
        curve = MissCurve(
            misses=given, chunk_bytes=1024, accesses=10.0, instructions=100.0
        )
        self.assert_read_only({0: [curve]})
        # The curve's array is read-only; the caller's buffer is not.
        assert given.flags.writeable


class TestCurveMemo:
    """Repeat requests for one payload are served from the process memo."""

    @pytest.fixture()
    def memo(self, store_env):
        return profiling._MEMO

    def seed(self, memo, seed=5):
        """Publish one profile, then forget it; returns (trace, cold)."""
        trace = random_trace(seed)
        cold = profile_vcs(trace, use_cache=False, **MEMO_KWARGS)
        profile_vcs(trace, **MEMO_KWARGS)
        memo.clear()
        return trace, cold

    def count_loads(self, monkeypatch):
        calls = []
        real = profiling.load_profile

        def counting(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(profiling, "load_profile", counting)
        return calls

    def test_repeats_load_once_and_share_hulls(self, memo, monkeypatch):
        trace, cold = self.seed(memo)
        loads = self.count_loads(monkeypatch)
        hulls = []
        real_hull = miss_curve._lower_convex_hull_fast

        def counting_hull(values):
            hulls.append(1)
            return real_hull(values)

        monkeypatch.setattr(miss_curve, "_lower_convex_hull_fast", counting_hull)
        served = [profile_vcs(trace, **MEMO_KWARGS) for __ in range(3)]
        for curves in served:
            prime_hull_caches(all_curves(curves))
        assert len(loads) == 1
        assert len(hulls) == len(all_curves(cold))
        for curves in served[1:]:
            assert all(
                a is b for a, b in zip(all_curves(curves), all_curves(served[0]))
            )
        assert_curves_equal(served[-1], cold)

    def test_returned_containers_are_fresh(self, memo):
        trace, cold = self.seed(memo)
        first = profile_vcs(trace, **MEMO_KWARGS)
        vc = next(iter(first))
        first[vc].reverse()
        first.pop(vc)
        first[99] = []
        second = profile_vcs(trace, **MEMO_KWARGS)
        assert_curves_equal(second, cold)
        second[vc][0] = None
        assert_curves_equal(profile_vcs(trace, **MEMO_KWARGS), cold)

    def test_replaced_payload_invalidates_entry(
        self, memo, tmp_path, monkeypatch
    ):
        trace, cold = self.seed(memo)
        profile_vcs(trace, **MEMO_KWARGS)
        ((__, __, path),) = ArtifactStore().artifacts("profiles")
        other = {
            vc: [c.scaled(2.0) for c in series] for vc, series in cold.items()
        }
        staged = publish_profile(ArtifactStore(tmp_path / "other"), "cd" * 16, other)
        loads = self.count_loads(monkeypatch)
        os.replace(staged, path)
        assert_curves_equal(profile_vcs(trace, **MEMO_KWARGS), other)
        assert loads == [path]

    def test_cache_roots_do_not_alias(self, memo, tmp_path, monkeypatch):
        # Two stores hold different payloads under one fingerprint.
        trace = random_trace(5)
        key = profiling._fingerprint(trace, MEMO_KWARGS["mapping"], 1024, 4, 2, 0)
        cold = profile_vcs(trace, use_cache=False, **MEMO_KWARGS)
        other = {
            vc: [c.scaled(3.0) for c in series] for vc, series in cold.items()
        }
        publish_profile(ArtifactStore(tmp_path / "a"), key, cold)
        publish_profile(ArtifactStore(tmp_path / "b"), key, other)
        for root, want in (("a", cold), ("b", other), ("a", cold)):
            monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / root))
            assert_curves_equal(profile_vcs(trace, **MEMO_KWARGS), want)

    def test_retained_bytes_stay_within_bound(self, memo):
        profile_vcs(random_trace(100), **MEMO_KWARGS)
        memo.limit = memo.nbytes * 3 + memo.nbytes // 2
        for seed in range(101, 141):
            profile_vcs(random_trace(seed), **MEMO_KWARGS)
            assert memo.nbytes <= memo.limit
        assert len(memo._entries) == 3

    def test_use_cache_false_never_touches_memo(self, memo, monkeypatch):
        trace, cold = self.seed(memo)
        shared = profile_vcs(trace, **MEMO_KWARGS)

        def untouchable(*args, **kwargs):
            raise AssertionError("use_cache=False consulted the memo")

        monkeypatch.setattr(memo, "get", untouchable)
        monkeypatch.setattr(memo, "put", untouchable)
        out = profile_vcs(trace, use_cache=False, **MEMO_KWARGS)
        assert_curves_equal(out, cold)
        for mine, theirs in zip(all_curves(out), all_curves(shared)):
            assert mine is not theirs
            assert not np.shares_memory(mine.misses, theirs.misses)


class TestRelabel:
    """``relabel_regions``: a table over the mapped ids, not their values."""

    def test_wide_ids_stay_within_memory_bound(self):
        rng = np.random.default_rng(3)
        regions = rng.integers(0, 50, size=1_000_000).astype(np.int32)
        regions[::7] = 2**31 - 1
        mapping = {3: 1, 2**31 - 1: 2, 49: 4, 1234: 5}
        tracemalloc.start()
        try:
            vcs = profiling.relabel_regions(regions, mapping)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20, f"relabel peaked at {peak / 2**20:.1f} MB"
        want = np.zeros(len(regions), dtype=np.int32)
        for rid, vc in mapping.items():
            want[regions == rid] = vc
        assert np.array_equal(vcs, want)
        assert not vcs[~np.isin(regions, list(mapping))].any()

    def test_single_vc_mapping_needs_no_table(self, monkeypatch):
        """A mapping onto VC 0 alone returns the table path's zeros at once."""
        rng = np.random.default_rng(5)
        ids = np.array([0, 7, 2**31 - 2, 2**31 - 1], dtype=np.int32)
        regions = rng.choice(ids, size=100_000).astype(np.int32)
        # 12345 and 2^31 - 3 are absent from the trace; 7 and 2^31 - 2 unmapped.
        mapping = {0: 0, 2**31 - 1: 0, 12345: 0, 2**31 - 3: 0}
        # One more mapped id, absent from the trace, forces the table path.
        table = profiling.relabel_regions(regions, {**mapping, 99: 1})

        def no_table(*args):
            raise AssertionError("the single-VC layout built a slot table")

        monkeypatch.setattr(profiling, "_slot_table", no_table)
        got = profiling.relabel_regions(regions, mapping)
        assert got.dtype == np.int32
        assert np.array_equal(got, table)
        assert not got.any()

    @settings(max_examples=60, deadline=None)
    @given(
        ids=st.lists(
            st.integers(0, 2**31 - 1), min_size=1, max_size=40, unique=True
        ),
        picks=st.lists(st.integers(0, 39), max_size=300),
        vcs=st.lists(st.integers(0, 7), min_size=40, max_size=40),
        mapped=st.lists(st.booleans(), min_size=40, max_size=40),
    )
    def test_matches_dict_lookup(self, ids, picks, vcs, mapped):
        regions = np.array([ids[i % len(ids)] for i in picks], dtype=np.int32)
        mapping = {rid: vcs[i] for i, rid in enumerate(ids) if mapped[i]}
        want = [mapping.get(int(r), 0) for r in regions]
        got = profiling.relabel_regions(regions, mapping)
        assert got.dtype == np.int32
        assert got.tolist() == want

    @pytest.mark.parametrize(
        "ids, displaced",
        [
            # More random ids than the largest table keeps at home.
            (np.random.default_rng(4).choice(2**31, 5000, replace=False), True),
            (np.arange(64) << 24, False),  # strided ids sharing low bits
        ],
    )
    def test_crowded_tables_probe_every_id(self, ids, displaced):
        rng = np.random.default_rng(9)
        regions = rng.choice(ids, size=200_000).astype(np.int32)
        mapping = {int(r): 1 + int(r) % 5 for r in ids[::2]}
        probes = profiling._slot_table(mapping, regions.dtype)[1]
        assert (probes > 0) == displaced
        want = np.array([mapping.get(int(r), 0) for r in regions], dtype=np.int32)
        assert np.array_equal(profiling.relabel_regions(regions, mapping), want)
