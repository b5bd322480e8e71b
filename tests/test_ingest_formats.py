"""Format round-trips: export -> ingest -> identical traces and curves.

The contract every interchange format must honour: a synthesized trace
exported and re-ingested is the *same* trace — equal line/region arrays
and bit-identical miss curves — so external captures and in-process
fixtures are interchangeable everywhere downstream.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.curves.reuse import StackDistanceProfiler
from repro.ingest import (
    ArraySource,
    RTraceSource,
    RTraceWriter,
    convert_to_rtrace,
    detect_format,
    materialize,
    open_trace_source,
    write_trace_file,
)
from repro.workloads.trace import Trace

DATA = Path(__file__).parent / "data"


def make_trace(n=4000, seed=3):
    rng = np.random.default_rng(seed)
    return Trace(
        lines=rng.integers(0, 700, n),
        regions=rng.integers(0, 4, n).astype(np.int32),
        instructions=n * 9.0,
        region_names={0: "a", 1: "b", 2: "c", 3: "d"},
    )


def curves_of(trace):
    profiler = StackDistanceProfiler(chunk_bytes=1024, n_chunks=8)
    return profiler.profile(
        trace.lines, trace.regions, trace.instructions, n_intervals=2
    )


def assert_same_curves(got, want):
    assert sorted(got) == sorted(want)
    for rid in want:
        for cg, cw in zip(got[rid], want[rid]):
            assert np.array_equal(cg.misses, cw.misses)
            assert cg.accesses == cw.accesses
            assert cg.instructions == cw.instructions


class ExplodingSource:
    """A sized source whose capture breaks after its first chunk."""

    n_records = 100
    line_bytes = 64
    instructions = 1000.0
    region_names: dict = {}

    def chunks(self, max_records=1 << 21):
        yield next(ArraySource.from_trace(make_trace(n=50)).chunks())
        raise RuntimeError("capture truncated mid-stream")


class TestGoldenLackey:
    """Pinned parse of a real-shaped Lackey capture."""

    def test_parse(self):
        source = open_trace_source(DATA / "tiny.lackey")
        assert source.n_records == 5
        assert source.instructions == 5.0  # one per I record
        chunk = next(iter(source.chunks()))
        assert chunk.addrs.tolist() == [
            0x04EBA0C8,
            0x04EBA0C8,
            0x0425D410,
            0x04EBA100,
            0x0425D420,
        ]

    def test_chunked_parse_is_identical(self):
        source = open_trace_source(DATA / "tiny.lackey")
        merged = np.concatenate([c.addrs for c in source.chunks(2)])
        assert merged.tolist() == next(iter(source.chunks())).addrs.tolist()

    def test_program_output_holds_no_record(self, tmp_path):
        # `valgrind ... ./app 2>&1` merges the program's own output into
        # the capture: a line is a record only when a space or a tab
        # follows its op letter and an ``addr,size`` pair comes after.
        path = tmp_path / "merged.lackey"
        path.write_text(
            "I  04000000,3\n L 00001000,8\nSorting 10 items\nI am done\n"
            "I  04000003,2\n S 00002000,4\nInit done\nS 3 items\n M 00003000,8\n"
        )
        source = open_trace_source(path)
        assert source.n_records == 3
        assert source.instructions == 2.0  # the two real I records
        chunk = next(iter(source.chunks()))
        assert chunk.addrs.tolist() == [0x1000, 0x2000, 0x3000]

    def test_malformed_record_raises(self, tmp_path):
        bad = tmp_path / "bad.lackey"
        bad.write_text(" L nothex,8\n")
        with pytest.raises(ValueError, match="malformed"):
            open_trace_source(bad)


class TestRoundTrips:
    @pytest.mark.parametrize("fmt", ["lackey", "mtrace", "csv", "jsonl"])
    def test_export_ingest_round_trip(self, tmp_path, fmt):
        trace = make_trace()
        path = tmp_path / f"t.{fmt}"
        write_trace_file(path, ArraySource.from_trace(trace), fmt)
        source = open_trace_source(path, fmt=fmt)
        assert source.n_records == len(trace)
        got = materialize(source, instructions=trace.instructions)
        assert np.array_equal(got.lines, trace.lines)
        if fmt in ("csv", "jsonl"):  # formats that carry regions
            assert np.array_equal(got.regions, trace.regions)
            assert_same_curves(curves_of(got), curves_of(trace))

    def test_mtrace_carries_instructions(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "t.mtrace"
        write_trace_file(path, ArraySource.from_trace(trace), "mtrace")
        assert open_trace_source(path).instructions == trace.instructions

    def test_rtrace_round_trip_and_curves(self, tmp_path):
        trace = make_trace()
        path = tmp_path / "t.rtrace"
        convert_to_rtrace(
            ArraySource.from_trace(trace), path, max_records=333
        )
        got = materialize(RTraceSource(path))
        assert np.array_equal(got.lines, trace.lines)
        assert np.array_equal(got.regions, trace.regions)
        assert got.instructions == trace.instructions
        assert got.region_names == trace.region_names
        assert_same_curves(curves_of(got), curves_of(trace))

    def test_dedup_is_chunk_invariant_and_matches_builder(self, tmp_path):
        # The streamed --dedup must collapse exactly what
        # TraceBuilder.finalize's private-cache model collapses,
        # independent of where chunk boundaries fall.
        from repro.ingest import RTraceSource

        rng = np.random.default_rng(8)
        addrs = (rng.integers(0, 40, 3000) * 64).astype(np.int64)
        regions = rng.integers(0, 3, 3000).astype(np.int32)
        fingerprints = set()
        for chunk_records in (1, 7, 100, 4096):
            path = tmp_path / f"d{chunk_records}.rtrace"
            header = convert_to_rtrace(
                ArraySource(addrs=addrs, regions=regions),
                path,
                apki=10.0,
                dedup=True,
                max_records=chunk_records,
            )
            fingerprints.add(header["fingerprint"])
        assert len(fingerprints) == 1, "dedup depends on chunk size"
        got = materialize(RTraceSource(tmp_path / "d1.rtrace"))
        # Oracle: drop accesses equal to the region's previous line.
        last: dict[int, int] = {}
        keep = np.ones(len(addrs), dtype=bool)
        for i, (line, r) in enumerate(
            zip((addrs // 64).tolist(), regions.tolist())
        ):
            if last.get(r) == line:
                keep[i] = False
            last[r] = line
        assert np.array_equal(got.lines, (addrs // 64)[keep])
        assert np.array_equal(got.regions, regions[keep])

    def test_rtrace_fingerprint_is_chunk_invariant(self, tmp_path):
        trace = make_trace()
        src = ArraySource.from_trace(trace)
        h1 = convert_to_rtrace(src, tmp_path / "a.rtrace", max_records=100)
        h2 = convert_to_rtrace(src, tmp_path / "b.rtrace", max_records=4096)
        assert h1["fingerprint"] == h2["fingerprint"]
        assert RTraceSource(tmp_path / "a.rtrace").verify_fingerprint()

    def test_rtrace_fingerprint_detects_different_content(self, tmp_path):
        t1, t2 = make_trace(seed=1), make_trace(seed=2)
        h1 = convert_to_rtrace(ArraySource.from_trace(t1), tmp_path / "a.rtrace")
        h2 = convert_to_rtrace(ArraySource.from_trace(t2), tmp_path / "b.rtrace")
        assert h1["fingerprint"] != h2["fingerprint"]

    def test_rtrace_tampered_chunk_fails_verification(self, tmp_path):
        import zipfile

        trace = make_trace(n=200)
        path = tmp_path / "t.rtrace"
        convert_to_rtrace(ArraySource.from_trace(trace), path)
        with zipfile.ZipFile(path) as zf:
            members = {n: zf.read(n) for n in zf.namelist()}
        name = "chunk_000000.lines.npy"
        members[name] = members[name][:-1] + bytes(
            [members[name][-1] ^ 0xFF]
        )
        with zipfile.ZipFile(path, "w") as zf:
            for n, payload in members.items():
                zf.writestr(n, payload)
        assert not RTraceSource(path).verify_fingerprint()

    def test_stored_writer_aligns_every_chunk(self, tmp_path):
        import zipfile

        from repro.store.mmapzip import MappedArchive, is_mapped

        path = tmp_path / "t.rtrace"
        rng = np.random.default_rng(5)
        writer = RTraceWriter(path, 64, compression=zipfile.ZIP_STORED)
        appended = []
        for n in (3, 17, 1, 40, 9, 25):
            chunk = (rng.integers(0, 1 << 20, n), rng.integers(0, 4, n))
            writer.append(*chunk)
            appended.append(chunk)
        writer.close(instructions=1000.0)
        archive = MappedArchive(path)
        members = [n for n in archive.members() if n.endswith(".npy")]
        assert len(members) == 12
        for name in members:
            chunk = archive.npy_member(name)
            assert is_mapped(chunk) and chunk.flags.aligned, name
        source = RTraceSource(path)
        assert source.verify_fingerprint()
        read = list(source.line_chunks())
        assert len(read) == len(appended)
        for (lines, regions), (want_lines, want_regions) in zip(read, appended):
            assert np.array_equal(lines, want_lines)
            assert np.array_equal(regions, want_regions)


class TestDetection:
    @pytest.mark.parametrize("fmt", ["lackey", "mtrace", "csv", "jsonl"])
    def test_detect_by_content(self, tmp_path, fmt):
        trace = make_trace(n=50)
        path = tmp_path / "mystery.dat"  # extension gives nothing away
        write_trace_file(path, ArraySource.from_trace(trace), fmt)
        assert detect_format(path) == fmt

    def test_detect_rtrace_by_magic(self, tmp_path):
        path = tmp_path / "mystery.bin"
        convert_to_rtrace(ArraySource.from_trace(make_trace(n=50)), path)
        assert detect_format(path) == "rtrace"

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "junk.dat"
        path.write_bytes(b"\x00\x01\x02 not a trace")
        with pytest.raises(ValueError, match="cannot detect"):
            detect_format(path)


class TestMalformedInputs:
    def test_mtrace_truncated_body_rejected(self, tmp_path):
        path = tmp_path / "t.mtrace"
        write_trace_file(
            path, ArraySource.from_trace(make_trace(n=100)), "mtrace"
        )
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError, match="records"):
            open_trace_source(path)

    def test_mtrace_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "t.mtrace"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            open_trace_source(path, fmt="mtrace")

    def test_csv_mixed_rows_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("addr,region\n100,1\n200\n")
        with pytest.raises(ValueError, match="region"):
            list(open_trace_source(path).chunks())

    def test_jsonl_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"addr": 1}\n{broken\n')
        with pytest.raises(ValueError, match="invalid JSON"):
            open_trace_source(path)

    def test_jsonl_float_address_rejected(self, tmp_path):
        # int(1.9) would silently alias distinct addresses.
        path = tmp_path / "t.jsonl"
        path.write_text('{"addr": 1.9}\n')
        with pytest.raises(ValueError, match="JSON integer"):
            list(open_trace_source(path).chunks())

    def test_jsonl_float_region_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"addr": 64, "region": 1.5}\n')
        with pytest.raises(ValueError, match="JSON integer"):
            list(open_trace_source(path).chunks())

    def test_csv_float_address_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("addr\n1.9\n")
        with pytest.raises(ValueError):
            list(open_trace_source(path).chunks())

    def test_rtrace_unsupported_version_rejected(self, tmp_path):
        import json
        import zipfile

        path = tmp_path / "t.rtrace"
        convert_to_rtrace(ArraySource.from_trace(make_trace(n=20)), path)
        with zipfile.ZipFile(path) as zf:
            members = {n: zf.read(n) for n in zf.namelist()}
        header = json.loads(members["header.json"])
        header["version"] = 99
        members["header.json"] = json.dumps(header).encode()
        with zipfile.ZipFile(path, "w") as zf:
            for n, payload in members.items():
                zf.writestr(n, payload)
        with pytest.raises(ValueError, match="version"):
            RTraceSource(path)

    def test_writer_rejects_mismatched_chunk(self, tmp_path):
        writer = RTraceWriter(tmp_path / "t.rtrace", line_bytes=64)
        with pytest.raises(ValueError, match="equal length"):
            writer.append(np.arange(3), np.zeros(2, dtype=np.int32))
        writer.close()

    def test_negative_address_rejected_at_chunk_boundary(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("addr\n100\n-5\n")
        with pytest.raises(ValueError, match="negative"):
            list(open_trace_source(path).chunks())

    def test_negative_region_rejected_at_ingest(self, tmp_path):
        # Fail here, not at the first simulation of a registered archive.
        path = tmp_path / "t.csv"
        path.write_text("addr,region\n4096,-1\n")
        with pytest.raises(ValueError, match="negative region"):
            list(open_trace_source(path).chunks())

    def test_rtrace_header_missing_keys_rejected(self, tmp_path):
        import json
        import zipfile

        path = tmp_path / "t.rtrace"
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr(
                "header.json",
                json.dumps({"format": "rtrace", "version": 1}),
            )
        with pytest.raises(ValueError, match="malformed rtrace header"):
            RTraceSource(path)


class TestMaterializeAndFailurePaths:
    def test_empty_source_diagnosed_before_instruction_check(self, tmp_path):
        # Regression: a zero-record capture without an instruction count
        # used to fail with "no instruction count", pointing users at
        # --instructions when the real problem was an empty source.
        path = tmp_path / "empty.csv"
        path.write_text("addr\n")
        source = open_trace_source(path)
        with pytest.raises(ValueError, match="yielded no records"):
            materialize(source)

    def test_convert_failure_unlinks_partial_archive(self, tmp_path):
        dst = tmp_path / "t.rtrace"
        with pytest.raises(RuntimeError, match="truncated"):
            convert_to_rtrace(ExplodingSource(), dst)
        # A partial archive must not survive to be mistaken for a
        # complete one (it would carry a half-stream fingerprint).
        assert not dst.exists()

    @pytest.mark.parametrize("fmt", ["lackey", "mtrace", "csv", "jsonl"])
    def test_failed_export_leaves_no_file(self, tmp_path, fmt):
        # A truncated export reads as a whole, shorter trace.
        dst = tmp_path / f"t.{fmt}"
        with pytest.raises(RuntimeError, match="truncated"):
            write_trace_file(dst, ExplodingSource(), fmt, max_records=20)
        assert not dst.exists()

    def test_stored_compression_same_fingerprint_and_trace(self, tmp_path):
        import zipfile

        trace = make_trace(n=1000)
        deflated = tmp_path / "d.rtrace"
        stored = tmp_path / "s.rtrace"
        h1 = convert_to_rtrace(ArraySource.from_trace(trace), deflated)
        h2 = convert_to_rtrace(
            ArraySource.from_trace(trace),
            stored,
            compression=zipfile.ZIP_STORED,
        )
        # The content fingerprint hashes arrays, not container bytes.
        assert h1["fingerprint"] == h2["fingerprint"]
        with zipfile.ZipFile(stored) as zf:
            assert all(
                i.compress_type == zipfile.ZIP_STORED for i in zf.infolist()
            )
        a = materialize(RTraceSource(deflated))
        b = materialize(RTraceSource(stored))
        assert np.array_equal(a.lines, b.lines)
        assert np.array_equal(a.regions, b.regions)
        assert a.instructions == b.instructions

    def test_stored_archive_materializes_zero_copy(self, tmp_path):
        import zipfile

        trace = make_trace(n=500)
        path = tmp_path / "s.rtrace"
        convert_to_rtrace(
            ArraySource.from_trace(trace),
            path,
            compression=zipfile.ZIP_STORED,
        )
        got = materialize(RTraceSource(path))
        assert np.array_equal(got.lines, trace.lines)
        assert np.array_equal(got.regions, trace.regions)
        # Single-chunk mapped archive: the arrays are read-only views
        # over the file mapping, not private heap copies.
        assert not got.lines.flags.writeable
        assert not got.regions.flags.writeable
        assert got.lines.base is not None

    def test_line_chunks_matches_chunks(self, tmp_path):
        trace = make_trace(n=3000)
        path = tmp_path / "t.rtrace"
        convert_to_rtrace(
            ArraySource.from_trace(trace), path, max_records=700
        )
        source = RTraceSource(path)
        via_chunks = np.concatenate(
            [c.addrs // source.line_bytes for c in source.chunks(500)]
        )
        via_lines = np.concatenate(
            [lines for lines, __ in source.line_chunks(500)]
        )
        assert np.array_equal(via_chunks, via_lines)
