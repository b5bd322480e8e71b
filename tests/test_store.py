"""The content-addressed artifact store: publish, map, maintain.

Everything runs against a temp root via ``$REPRO_STORE_DIR``; the
fixture pile is exercised separately in ``test_profiling_cache.py``.
"""

import struct
import zipfile

import numpy as np
import pytest

from repro.store import (
    ArtifactStore,
    default_root,
    npz_arrays,
    provenance_record,
    publish_trace,
)
from repro.store.artifacts import ENV_STORE
from repro.store.mmapzip import MappedArchive, is_mapped
from repro.store.profiles import (
    FORMAT_VERSION,
    LAYOUT,
    load_profile,
    publish_profile,
    verify_profile_payload,
)


@pytest.fixture()
def store(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_STORE, str(tmp_path / "store"))
    return ArtifactStore()


def make_curves(n_intervals=2, n_chunks=4, seed=0):
    from repro.curves.miss_curve import MissCurve

    rng = np.random.default_rng(seed)
    out = {}
    for vc in (0, 1):
        out[vc] = [
            MissCurve(
                misses=np.sort(rng.uniform(0, 100, n_chunks + 1))[::-1],
                chunk_bytes=1024,
                accesses=100.0 + vc,
                instructions=1000.0 + t,
            )
            for t in range(n_intervals)
        ]
    return out


def make_rtrace(path, n=800, seed=3, **kwargs):
    from repro.ingest import ArraySource, convert_to_rtrace
    from repro.workloads.trace import Trace

    rng = np.random.default_rng(seed)
    trace = Trace(
        lines=rng.integers(0, 128, n),
        regions=rng.integers(0, 3, n).astype(np.int32),
        instructions=n * 8.0,
        region_names={0: "a", 1: "b", 2: "c"},
    )
    header = convert_to_rtrace(ArraySource.from_trace(trace), path, **kwargs)
    return trace, header


class TestDefaultRoot:
    def test_env_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_STORE, str(tmp_path / "r"))
        assert default_root() == tmp_path / "r"

    def test_checkout_default_is_inside_the_repo(self, monkeypatch):
        # The legacy cache default resolved parents[3] unconditionally,
        # which lands inside site-packages for an installed package; the
        # store only uses it when it really is a source checkout.
        monkeypatch.delenv(ENV_STORE, raising=False)
        root = default_root()
        assert root.name == ".repro_store"
        assert (root.parent / "pyproject.toml").exists()


class TestMappedArchive:
    def test_npz_roundtrip_views(self, tmp_path):
        a = np.arange(100, dtype=np.int64)
        b = np.linspace(0, 1, 33)
        path = tmp_path / "p.npz"
        with open(path, "wb") as f:
            np.savez(f, a=a, b=b)
        arrays = npz_arrays(path)
        assert arrays is not None
        assert np.array_equal(arrays["a"], a)
        assert np.array_equal(arrays["b"], b)
        # Views over one shared mapping, never private heap copies.
        for arr in arrays.values():
            assert not arr.flags.writeable
            assert arr.base is not None

    def test_compressed_npz_is_inflated(self, tmp_path):
        path = tmp_path / "p.npz"
        np.savez_compressed(path, a=np.arange(10), b=np.linspace(0, 1, 7))
        arrays = npz_arrays(path)
        assert np.array_equal(arrays["a"], np.arange(10))
        assert np.array_equal(arrays["b"], np.linspace(0, 1, 7))
        for arr in arrays.values():
            assert not arr.flags.writeable
            assert not is_mapped(arr)
        assert MappedArchive(path).npy_member("a.npy") is None

    def test_damaged_deflated_member_rejected(self, tmp_path):
        path = tmp_path / "p.npz"
        np.savez_compressed(path, a=np.zeros(4096))
        with zipfile.ZipFile(path) as zf:
            (info,) = zf.infolist()
        raw = bytearray(path.read_bytes())
        lo = info.header_offset
        nlen, elen = struct.unpack("<HH", raw[lo + 26 : lo + 30])
        raw[lo + 30 + nlen + elen + 4] ^= 0xFF  # a byte of the stream
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError):
            npz_arrays(path)

    def test_impossible_inflated_size_rejected(self, tmp_path):
        path = tmp_path / "p.npz"
        with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
            zf.writestr("a.npy", b"\x93NUMPY" + bytes(4096))
        raw = bytearray(path.read_bytes())
        central = raw.index(b"PK\x01\x02")
        # The directory's uncompressed size, far past deflate's 1032:1.
        raw[central + 24 : central + 28] = struct.pack("<I", 1 << 31)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="declares"):
            npz_arrays(path)

    @pytest.mark.parametrize(
        "old, new",
        [
            (b"{'descr'", b"{'descX'"),  # a missing key
            (b"{'descr'", b"['descr'"),  # not a literal
            (b"'shape': (", b"'shape': {"),  # not a literal either
            (b"'shape': (", b"'shape':1("),  # a shape that is no tuple
            (b"'descr': '<", b"'descr': '?"),  # no dtype
        ],
    )
    def test_damaged_npy_header_is_a_value_error(self, tmp_path, old, new):
        path = tmp_path / "p.npz"
        with open(path, "wb") as f:
            np.savez(f, a=np.arange(4.0))
        raw = path.read_bytes()
        assert old in raw
        path.write_bytes(raw.replace(old, new, 1))
        with pytest.raises(ValueError, match="npy header"):
            npz_arrays(path)

    def test_member_names_and_missing_member(self, tmp_path):
        path = tmp_path / "p.npz"
        with open(path, "wb") as f:
            np.savez(f, only=np.arange(4))
        archive = MappedArchive(path)
        assert archive.members() == ["only.npy"]
        with pytest.raises(KeyError):
            archive.npy_member("other.npy")

    def test_non_npy_member_rejected(self, tmp_path):
        path = tmp_path / "p.zip"
        with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
            zf.writestr("x.npy", b"not an array")
        with pytest.raises(ValueError, match="magic"):
            MappedArchive(path).npy_member("x.npy")

    def test_fortran_order_and_2d(self, tmp_path):
        arr = np.asfortranarray(np.arange(12, dtype=np.float64).reshape(3, 4))
        path = tmp_path / "p.npz"
        with open(path, "wb") as f:
            np.savez(f, m=arr)
        out = npz_arrays(path)["m"]
        assert np.array_equal(out, arr)


class TestArtifactStore:
    def test_publish_and_provenance(self, store):
        meta = provenance_record(
            "profiles", "ab" * 16, builder="test", inputs={"k": 1}
        )
        path = store.publish(
            "profiles", "ab" * 16, lambda p: p.write_bytes(b"x"), meta
        )
        assert path.read_bytes() == b"x"
        assert path.parent.name == "ab"
        got = store.provenance("profiles", "ab" * 16)
        assert got["builder"] == "test"
        assert got["inputs"] == {"k": 1}
        assert got["tool"].startswith("repro ")
        assert store.get("profiles", "ab" * 16) == path
        assert store.get("profiles", "cd" * 16) is None

    def test_publish_failure_leaves_no_artifact(self, store):
        def boom(tmp):
            tmp.write_bytes(b"partial")
            raise RuntimeError("disk on fire")

        with pytest.raises(RuntimeError):
            store.publish("profiles", "ee" * 16, boom)
        assert store.get("profiles", "ee" * 16) is None
        assert not list(store.root.rglob(".*.tmp"))

    def test_unknown_kind_rejected(self, store):
        with pytest.raises(ValueError, match="unknown artifact kind"):
            store.path("figures", "ab" * 16)

    def test_name_bindings(self, store):
        store.publish("traces", "11" * 16, lambda p: p.write_bytes(b"t"))
        store.bind_name("myapp", "traces", "11" * 16)
        binding = store.resolve_name("myapp")
        assert binding["fingerprint"] == "11" * 16
        assert store.resolve_name("other") is None
        assert list(store.names()) == ["myapp"]

    def test_gc_dry_run_then_real(self, store):
        store.publish("profiles", "aa" * 16, lambda p: p.write_bytes(b"x"))
        # Garbage: a staging temp, an orphaned sidecar, a dead binding.
        staging = store.root / "profiles" / "aa" / ".junk.123.tmp"
        staging.write_bytes(b"crash leftover")
        store._write_json(
            store.meta_path("profiles", "bb" * 16), {"orphan": True}
        )
        store.bind_name("dead", "traces", "cc" * 16)

        dry = store.gc(dry_run=True)
        assert len(dry["removed"]) == 3
        assert staging.exists()  # dry run touches nothing
        assert store.meta_path("profiles", "bb" * 16).exists()

        real = store.gc()
        assert sorted(real["removed"]) == sorted(dry["removed"])
        assert not staging.exists()
        assert not store.meta_path("profiles", "bb" * 16).exists()
        assert store.resolve_name("dead") is None
        # The payload itself is never collected.
        assert store.get("profiles", "aa" * 16) is not None

    def test_gc_reports_unprovenanced_payloads(self, store):
        store.publish("profiles", "aa" * 16, lambda p: p.write_bytes(b"x"))
        report = store.gc(dry_run=True)
        assert report["unprovenanced"] == ["profiles/" + "aa" * 16]

    def test_verify_flags_corrupt_artifacts(self, store, tmp_path):
        curves = make_curves()
        publish_profile(store, "aa" * 16, curves)
        make_rtrace(tmp_path / "t.rtrace", apki=8.0)
        fp, __ = publish_trace(store, tmp_path / "t.rtrace", name="t")
        report = store.verify()
        assert sorted(report["ok"]) == sorted(
            ["profiles/" + "aa" * 16, f"traces/{fp}"]
        )
        assert report["bad"] == {}
        # Corrupt the profile payload; verify must call it out.
        store.path("profiles", "aa" * 16).write_bytes(b"garbage")
        report = store.verify()
        assert "profiles/" + "aa" * 16 in report["bad"]

    def test_verify_flags_misfiled_trace(self, store, tmp_path):
        make_rtrace(tmp_path / "t.rtrace", apki=8.0)
        store.publish_file("traces", "00" * 16, tmp_path / "t.rtrace")
        report = store.verify()
        assert "traces/" + "00" * 16 in report["bad"]
        assert "does not match" in report["bad"]["traces/" + "00" * 16]

    def test_compact_rewrites_deflated_payloads(self, store):
        payload = {"format_version": np.array(FORMAT_VERSION), "x": np.arange(50)}

        def write_deflated(tmp):
            np.savez_compressed(open(tmp, "wb"), **payload)

        store.publish("profiles", "aa" * 16, write_deflated)
        path = store.path("profiles", "aa" * 16)
        assert not is_mapped(npz_arrays(path)["x"])  # not mappable yet
        dry = store.compact(dry_run=True)
        assert dry["rewritten"] == ["profiles/" + "aa" * 16]
        assert not is_mapped(npz_arrays(path)["x"])
        real = store.compact()
        assert real["rewritten"] == dry["rewritten"]
        arrays = npz_arrays(path)
        assert is_mapped(arrays["x"]) and arrays["x"].flags.aligned
        assert np.array_equal(arrays["x"], np.arange(50))
        assert store.compact()["rewritten"] == []  # idempotent


class TestProfilePayload:
    def test_publish_is_mappable_and_loads(self, store):
        curves = make_curves(n_intervals=3)
        publish_profile(store, "ab" * 16, curves)
        path = store.get("profiles", "ab" * 16)
        loaded = load_profile(path, chunk_bytes=1024, n_intervals=3)
        assert set(loaded) == set(curves)
        for vc in curves:
            for got, want in zip(loaded[vc], curves[vc]):
                assert np.array_equal(got.misses, want.misses)
                assert got.accesses == want.accesses
                assert got.instructions == want.instructions
                # Zero-copy: a read-only view over the file mapping,
                # aligned so numpy takes its aligned loops.
                assert not got.misses.flags.writeable
                assert is_mapped(got.misses)
                assert got.misses.flags.aligned
        # Equal curves publish byte-equal payloads.
        again = publish_profile(store, "cd" * 16, curves)
        assert again.read_bytes() == path.read_bytes()

    def test_load_falls_back_on_compressed(self, tmp_path):
        from repro.store.profiles import encode_payload

        curves = make_curves()
        path = tmp_path / "legacy.npz"
        np.savez_compressed(path, **encode_payload(curves))
        loaded = load_profile(path, chunk_bytes=1024, n_intervals=2)
        assert loaded is not None
        assert np.array_equal(loaded[0][0].misses, curves[0][0].misses)

    def test_load_missing_and_garbage(self, tmp_path):
        assert load_profile(tmp_path / "no.npz", 1024, 1) is None
        (tmp_path / "bad.npz").write_bytes(b"nope")
        assert load_profile(tmp_path / "bad.npz", 1024, 1) is None

    def test_verify_payload_diagnoses(self, store):
        publish_profile(store, "ab" * 16, make_curves(n_intervals=2))
        path = store.get("profiles", "ab" * 16)
        assert verify_profile_payload(path) is None
        sound = dict(np.load(path))
        for mutate, reason in (
            (lambda d: d.update(misses=d["misses"][:, :1]), "do not stack"),
            (lambda d: d.pop("instructions"), "missing instructions"),
            (lambda d: d.update(layout=np.array(2)), "layout"),
            (lambda d: d.pop("layout"), "no layout tag"),
        ):
            data = dict(sound)
            mutate(data)
            with open(path, "wb") as f:
                np.savez(f, **data)
            assert reason in verify_profile_payload(path)
        # A flipped bit in a stored curve parses fine; only its CRC-32
        # shows the damage.
        with open(path, "wb") as f:
            np.savez(f, **sound)
        raw = bytearray(path.read_bytes())
        raw[raw.index(sound["misses"].tobytes()) + 5] ^= 0x01
        path.write_bytes(bytes(raw))
        assert "bad CRC-32 for member 'misses.npy'" in verify_profile_payload(path)

    def test_payload_is_one_array_per_quantity(self, store):
        curves = make_curves(n_intervals=3, n_chunks=5)
        path = publish_profile(store, "ab" * 16, curves)
        with zipfile.ZipFile(path) as zf:
            assert sorted(zf.namelist()) == [
                "accesses.npy",
                "instructions.npy",
                "layout.npy",
                "misses.npy",
                "vc_ids.npy",
            ]
        arrays = npz_arrays(path)
        assert int(arrays["layout"]) == LAYOUT
        assert arrays["misses"].shape == (2, 3, 6)
        loaded = load_profile(path, chunk_bytes=1024, n_intervals=3)
        # Every curve is a row of the one mapped misses array.
        rows = [c.misses for series in loaded.values() for c in series]
        (base,) = {id(m.base): m.base for m in rows}.values()
        assert base.size == 2 * 3 * 6 and is_mapped(base)

    def test_ragged_curves_are_refused(self):
        from repro.curves.miss_curve import MissCurve
        from repro.store.profiles import encode_payload

        curves = make_curves(n_intervals=2)
        curves[7] = curves[1][:1]
        with pytest.raises(ValueError, match="VC 7 has 1 intervals"):
            encode_payload(curves)
        curves[7] = [
            curves[1][0],
            MissCurve(np.zeros(3), 1024, accesses=1.0, instructions=1.0),
        ]
        with pytest.raises(ValueError, match="VC 7 interval 1"):
            encode_payload(curves)


class TestPublishTrace:
    def test_deflated_archive_published_mappable(self, store, tmp_path):
        trace, header = make_rtrace(tmp_path / "t.rtrace", apki=8.0)
        fp, dst = publish_trace(store, tmp_path / "t.rtrace", name="app")
        assert fp == header["fingerprint"]
        with zipfile.ZipFile(dst) as zf:
            assert all(
                i.compress_type == zipfile.ZIP_STORED for i in zf.infolist()
            )
        from repro.ingest import RTraceSource

        source = RTraceSource(dst)
        assert source.fingerprint == fp  # compression-invariant key
        assert source.verify_fingerprint()
        archive = MappedArchive(dst)
        for name in archive.members():
            if name.endswith(".npy"):
                chunk = archive.npy_member(name)
                assert is_mapped(chunk) and chunk.flags.aligned
        assert store.resolve_name("app")["fingerprint"] == fp
        meta = store.provenance("traces", fp)
        assert meta["builder"].endswith("publish_trace")

    def test_stored_archive_republished_aligned(self, store, tmp_path):
        # A ZIP_STORED archive is rewritten too: a plain zip writer puts
        # its members wherever they fall, not on the 64-byte grid mapped
        # reads need.
        from repro.ingest import RTraceSource
        from repro.ingest.formats import RTraceWriter

        deflated = tmp_path / "deflated.rtrace"
        rng = np.random.default_rng(5)
        writer = RTraceWriter(deflated, 64)
        for n in (3, 17, 1, 40, 9, 25):
            writer.append(rng.integers(0, 1 << 20, n), rng.integers(0, 4, n))
        header = writer.close(instructions=1000.0)
        src = tmp_path / "t.rtrace"
        with zipfile.ZipFile(deflated) as zin, zipfile.ZipFile(
            src, "w", zipfile.ZIP_STORED
        ) as zout:
            for info in zin.infolist():
                zout.writestr(info.filename, zin.read(info))
        unaligned = MappedArchive(src)
        assert not all(
            unaligned.npy_member(n).flags.aligned
            for n in unaligned.members()
            if n.endswith(".npy")
        )
        fp, dst = publish_trace(store, src)
        assert fp == header["fingerprint"]
        archive = MappedArchive(dst)
        members = [n for n in archive.members() if n.endswith(".npy")]
        assert len(members) == 12
        for name in members:
            chunk = archive.npy_member(name)
            assert is_mapped(chunk) and chunk.flags.aligned, name
        assert RTraceSource(dst).verify_fingerprint()
        before = list(RTraceSource(src).line_chunks())
        after = list(RTraceSource(dst).line_chunks())
        assert len(after) == len(before) == 6
        for (a_lines, a_regions), (b_lines, b_regions) in zip(before, after):
            assert np.array_equal(a_lines, b_lines)
            assert np.array_equal(a_regions, b_regions)

    def test_no_instruction_count_rejected(self, store, tmp_path):
        from repro.ingest import (
            ArraySource,
            convert_to_rtrace,
            open_trace_source,
            write_trace_file,
        )
        from repro.workloads.trace import Trace

        rng = np.random.default_rng(4)
        trace = Trace(
            lines=rng.integers(0, 64, 100),
            regions=rng.integers(0, 2, 100).astype(np.int32),
            instructions=500.0,
        )
        # CSV carries no instruction count, so neither does the archive.
        write_trace_file(
            tmp_path / "t.csv", ArraySource.from_trace(trace), "csv"
        )
        convert_to_rtrace(
            open_trace_source(tmp_path / "t.csv"), tmp_path / "t.rtrace"
        )
        with pytest.raises(ValueError, match="instruction count"):
            publish_trace(store, tmp_path / "t.rtrace", name="app")
        assert store.names() == {}


class TestStoreCLI:
    def test_status_gc_verify_roundtrip(self, store, tmp_path, capsys):
        from repro.cli import main

        publish_profile(store, "ab" * 16, make_curves())
        make_rtrace(tmp_path / "t.rtrace", apki=8.0)
        publish_trace(store, tmp_path / "t.rtrace", name="app")
        assert main(["store", "status"]) == 0
        out = capsys.readouterr().out
        assert "profiles: 1 artifacts" in out
        assert "traces: 1 artifacts" in out
        assert "names: 1 bindings" in out
        assert main(["store", "gc", "--dry-run"]) == 0
        assert main(["store", "verify"]) == 0
        assert "2 artifacts, 0 bad" in capsys.readouterr().out

    def test_verify_fails_on_corruption(self, store, tmp_path, capsys):
        from repro.cli import main

        publish_profile(store, "ab" * 16, make_curves())
        store.path("profiles", "ab" * 16).write_bytes(b"junk")
        assert main(["store", "verify"]) == 1
        assert "BAD" in capsys.readouterr().err

    def test_verify_lists_each_damaged_payload(self, store, tmp_path, capsys):
        from repro.cli import main

        for key, seed in (("aa", 0), ("bb", 1)):
            publish_profile(store, key * 16, make_curves(seed=seed))
        traces = []
        for seed in (3, 4):
            make_rtrace(tmp_path / f"{seed}.rtrace", seed=seed, apki=8.0)
            fp, __ = publish_trace(
                store, tmp_path / f"{seed}.rtrace", name=f"t{seed}"
            )
            traces.append(fp)
        # An npy header that no longer parses (so its CRC fails too), and
        # a local file header whose name no longer matches the directory.
        profile = store.path("profiles", "bb" * 16)
        profile.write_bytes(
            profile.read_bytes().replace(b"{'descr'", b"{'descX'", 1)
        )
        trace = store.path("traces", traces[1])
        raw = bytearray(trace.read_bytes())
        raw[raw.find(b"PK\x03\x04") + 31] ^= 0xFF
        trace.write_bytes(bytes(raw))
        assert main(["store", "verify"]) == 1
        out, err = capsys.readouterr()
        assert "verified 2 artifacts, 2 bad" in out
        bad = sorted(
            line.split(":")[0] for line in err.splitlines() if "BAD" in line
        )
        assert bad == sorted(
            [f"BAD profiles/{'bb' * 16}", f"BAD traces/{traces[1]}"]
        )

    def test_missing_store_handled(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv(ENV_STORE, str(tmp_path / "nowhere"))
        assert main(["store", "status"]) == 0
        assert "(empty)" in capsys.readouterr().out
        assert main(["store", "verify"]) == 2

    def test_compact_imports_legacy_piles(
        self, store, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        # A fixture pile with one entry: compact pulls it into the store.
        legacy_cache = tmp_path / "cache"
        legacy_cache.mkdir()
        from repro.sim import profiling
        from repro.store.profiles import encode_payload

        np.savez_compressed(
            legacy_cache / ("cd" * 16 + ".npz"), **encode_payload(make_curves())
        )
        monkeypatch.setattr(profiling, "_fixture_dir", lambda: legacy_cache)

        assert main(["store", "compact", "--dry-run"]) == 0
        assert store.status()["kinds"]["profiles"]["artifacts"] == 0
        assert main(["store", "compact"]) == 0
        assert store.status()["kinds"]["profiles"]["artifacts"] == 1
        # Imported payloads come out mappable.
        arrays = npz_arrays(store.path("profiles", "cd" * 16))
        assert all(is_mapped(a) for a in arrays.values())
        assert main(["store", "compact"]) == 0  # idempotent
        assert store.status()["kinds"]["profiles"]["artifacts"] == 1


class TestRegistryStoreResolution:
    @pytest.fixture(autouse=True)
    def clean_registry(self):
        from repro.workloads.registry import _REGISTERED_TRACES

        yield
        _REGISTERED_TRACES.clear()

    def test_store_named_trace_is_a_workload(self, store, tmp_path):
        from repro.workloads import build_workload, ingested_apps

        trace, __ = make_rtrace(tmp_path / "t.rtrace", apki=8.0)
        publish_trace(store, tmp_path / "t.rtrace", name="storeapp")
        assert "storeapp" in ingested_apps()
        workload = build_workload("storeapp")
        assert workload.name == "storeapp"
        assert np.array_equal(workload.trace.lines, trace.lines)
        assert np.array_equal(workload.trace.regions, trace.regions)
        # Stored archives materialize as zero-copy mapped views.
        assert not workload.trace.lines.flags.writeable

    def test_ingest_register_rtrace_uses_store(self, store, tmp_path, capsys):
        from repro.cli import main
        from repro.workloads import build_workload

        make_rtrace(tmp_path / "in.rtrace", apki=8.0)
        rc = main(
            ["ingest", "register", str(tmp_path / "in.rtrace"),
             "--name", "cliapp"]
        )
        assert rc == 0
        assert "registered 'cliapp'" in capsys.readouterr().out
        assert build_workload("cliapp").name == "cliapp"
        assert store.status()["kinds"]["traces"]["artifacts"] == 1
        assert not list((store.root / "tmp").glob("*")) if (
            store.root / "tmp"
        ).exists() else True

    def test_ingest_register_conversion_path_to_store(
        self, store, tmp_path, capsys
    ):
        from repro.cli import main
        from repro.ingest import ArraySource, write_trace_file
        from repro.workloads import build_workload
        from repro.workloads.trace import Trace

        rng = np.random.default_rng(2)
        trace = Trace(
            lines=rng.integers(0, 64, 400),
            regions=rng.integers(0, 2, 400).astype(np.int32),
            instructions=2000.0,
        )
        src = tmp_path / "t.csv"
        write_trace_file(src, ArraySource.from_trace(trace), "csv")
        rc = main(
            ["ingest", "register", str(src), "--name", "csvapp", "--apki", "8"]
        )
        assert rc == 0
        workload = build_workload("csvapp")
        assert np.array_equal(workload.trace.lines, trace.lines)
        # Conversion staged in the store's tmp/ and cleaned up after.
        assert not list((store.root / "tmp").iterdir())
