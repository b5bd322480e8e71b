"""Artifact-store micro-benchmark: zero-copy profile loads.

Same contract as the other perf smokes: a CI gate with a conservative
floor so slow runners don't flake, plus timings written as JSON
(``benchmarks/perf_store_timings.json``, gitignored) for the CI
artifact upload.  The gates model the campaign-worker steady state:
the first worker pays one cold deserialize of a compressed profile
(the fixture pile's encoding), every later worker re-opens the store's
uncompressed payload and gets memory-mapped views — the OS page cache
makes the repeat open O(header bytes), not O(payload bytes) — and
within one worker, every later job asking for the same profile is
served by the in-process memo without opening the payload at all.
"""

import time
from pathlib import Path

import numpy as np

from repro.curves.miss_curve import MissCurve
from repro.obs.timings import infer_unit, record_timings
from repro.sim import profiling
from repro.store import ArtifactStore, load_profile, publish_profile
from repro.store.mmapzip import is_mapped
from repro.store.profiles import encode_payload
from repro.workloads.trace import Trace

#: 8 VCs x 4 intervals x (256k + 1) float64 points ~= 64 MiB of curves.
N_VCS = 8
N_INTERVALS = 4
N_POINTS = 256 * 1024
CHUNK_BYTES = 64 * 1024

#: One 16-core app's Whirlpool profile (3 pools x 8 intervals on the
#: 16-core grid of 1296 chunks, ~250 kB): the unit the memo serves.
MEMO_VCS = 3
MEMO_INTERVALS = 8
MEMO_POINTS = 1297

#: CI floor for repeat-open speedup over a cold compressed deserialize,
#: and for a memo hit over a mapped store load.  Header parsing vs.
#: inflating the whole payload measures in the hundreds on a dedicated
#: core; 5x only catches an accidental fall off the mmap path (e.g. a
#: compressed member sneaking into the store), or off the memo.
FLOOR_SPEEDUP = 5.0

TIMINGS_PATH = Path(__file__).parent / "perf_store_timings.json"


def _record_timings(name, **fields):
    record_timings(
        TIMINGS_PATH,
        name,
        {k: (v, infer_unit(k)) for k, v in fields.items()},
        gate=f"speedup >= {FLOOR_SPEEDUP}x",
    )


def _make_curves(
    seed=29, n_vcs=N_VCS, n_intervals=N_INTERVALS, n_points=N_POINTS
):
    rng = np.random.default_rng(seed)
    curves = {}
    for vc in range(n_vcs):
        per_interval = []
        for __ in range(n_intervals):
            drops = rng.random(n_points)
            misses = np.concatenate(
                [[float(drops.sum() + 1.0)], (drops.sum() + 1.0) - np.cumsum(drops)]
            )
            per_interval.append(
                MissCurve(
                    misses=misses,
                    chunk_bytes=CHUNK_BYTES,
                    accesses=float(n_points),
                    instructions=4.0 * n_points,
                )
            )
        curves[vc] = per_interval
    return curves


def _best_of(fn, repeats):
    best = float("inf")
    for __ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


class TestPerfStore:
    def test_perf_smoke_memmap_repeat_load(self, tmp_path):
        """CI gate: repeat store load >= FLOOR_SPEEDUP x cold deserialize."""
        curves = _make_curves()
        payload = encode_payload(curves)
        payload_mb = sum(a.nbytes for a in payload.values()) / 1e6

        # Cold path: the same payload compressed, as in the fixture
        # pile — inflated and copied in full on every load.
        legacy = tmp_path / "legacy.npz"
        with open(legacy, "wb") as fh:
            np.savez_compressed(fh, **payload)
        t_cold = float("inf")
        for __ in range(3):
            t0 = time.perf_counter()
            loaded = load_profile(
                legacy, chunk_bytes=CHUNK_BYTES, n_intervals=N_INTERVALS
            )
            t_cold = min(t_cold, time.perf_counter() - t0)
        assert loaded is not None

        # Store path: publish once (what profile_vcs does), then time the
        # repeat open a second campaign worker performs.
        store = ArtifactStore(tmp_path / "store")
        fingerprint = "f" * 32
        path = publish_profile(store, fingerprint, curves)
        t_map = float("inf")
        for __ in range(3):
            t0 = time.perf_counter()
            mapped = load_profile(
                path, chunk_bytes=CHUNK_BYTES, n_intervals=N_INTERVALS
            )
            t_map = min(t_map, time.perf_counter() - t0)

        # The speedup only counts if the load really is zero-copy: every
        # curve a read-only view over the mapped archive, not a copy.
        for per_interval in mapped.values():
            for curve in per_interval:
                assert not curve.misses.flags.writeable
                assert is_mapped(curve.misses)
        for vc, per_interval in loaded.items():
            for got, want in zip(mapped[vc], per_interval):
                assert np.array_equal(got.misses, want.misses)
                assert got.accesses == want.accesses

        speedup = t_cold / t_map
        _record_timings(
            "profile_load_64mb",
            payload_mb=payload_mb,
            cold_deserialize_s=t_cold,
            memmap_load_s=t_map,
            speedup=speedup,
        )
        print(
            f"\n[perf] store profile load {payload_mb:.0f} MB: "
            f"mapped {t_map*1e3:.1f} ms vs cold {t_cold*1e3:.1f} ms "
            f"({speedup:.0f}x)"
        )
        assert speedup >= FLOOR_SPEEDUP, (
            f"store loads fell to {speedup:.1f}x a cold deserialize "
            f"(floor {FLOOR_SPEEDUP}x) — memmap fast path lost?"
        )

    def test_perf_smoke_memo_repeat_profile(self, tmp_path, monkeypatch):
        """CI gate: a repeat profile_vcs reads no payload, >= FLOOR x a mapped load."""
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "store"))
        monkeypatch.setattr(
            profiling, "_MEMO", profiling._CurveMemo(profiling._MEMO_BYTES)
        )
        rng = np.random.default_rng(31)
        trace = Trace(
            lines=rng.integers(0, 1 << 20, size=100_000),
            regions=rng.integers(0, MEMO_VCS, size=100_000).astype(np.int32),
            instructions=1e6,
        )
        mapping = {vc: vc for vc in range(MEMO_VCS)}
        grid = dict(
            chunk_bytes=CHUNK_BYTES,
            n_chunks=MEMO_POINTS - 1,
            n_intervals=MEMO_INTERVALS,
        )
        # Publish the stored fingerprint's payload as profile_vcs would.
        curves = _make_curves(
            n_vcs=MEMO_VCS, n_intervals=MEMO_INTERVALS, n_points=MEMO_POINTS
        )
        key = profiling._fingerprint(trace, mapping, sample_shift=0, **grid)
        path = publish_profile(ArtifactStore(), key, curves)
        t_map = _best_of(
            lambda: load_profile(path, CHUNK_BYTES, MEMO_INTERVALS), 20
        )

        first = profiling.profile_vcs(trace, mapping, **grid)
        loads = []
        real_load = profiling.load_profile

        def counting_load(*args, **kwargs):
            loads.append(args[0])
            return real_load(*args, **kwargs)

        monkeypatch.setattr(profiling, "load_profile", counting_load)
        t_memo = _best_of(lambda: profiling.profile_vcs(trace, mapping, **grid), 200)
        repeat = profiling.profile_vcs(trace, mapping, **grid)
        assert loads == [], "a repeat profile_vcs re-read its payload"
        for vc, per_interval in first.items():
            assert all(a is b for a, b in zip(repeat[vc], per_interval))

        speedup = t_map / t_memo
        _record_timings(
            "profile_vcs_memo_repeat",
            payload_mb=sum(a.nbytes for a in encode_payload(curves).values()) / 1e6,
            memmap_load_us=t_map * 1e6,
            memo_hit_us=t_memo * 1e6,
            speedup=speedup,
        )
        print(
            f"\n[perf] repeat profile_vcs: memo {t_memo*1e6:.0f} us vs "
            f"mapped load {t_map*1e6:.0f} us ({speedup:.0f}x)"
        )
        assert speedup >= FLOOR_SPEEDUP, (
            f"a memo hit fell to {speedup:.1f}x a mapped store load "
            f"(floor {FLOOR_SPEEDUP}x) — memo bypassed?"
        )
