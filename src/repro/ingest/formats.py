"""Pluggable trace formats: readers, writers, and the format registry.

Four interchange formats plus the native archive:

========  ==========================  ======================================
name      extensions                  what it is
========  ==========================  ======================================
lackey    .lackey .vgtrace            Valgrind ``--tool=lackey
                                      --trace-mem=yes`` text output
mtrace    .mtrace                     DynamoRIO-memtrace-style packed
                                      little-endian binary records
csv       .csv                        ``addr[,region]`` rows, decimal or
                                      0x-hex, optional header line
jsonl     .jsonl .ndjson              one ``{"addr": ..., "region": ...}``
                                      object per line
rtrace    .rtrace                     native chunked-npz archive (header
                                      with line size, region names and a
                                      content fingerprint)
========  ==========================  ======================================

Readers are :class:`~repro.ingest.source.TraceSource` classes registered
in :data:`FORMATS`; :func:`open_trace_source` resolves a path by explicit
name, extension, or content sniffing.  The three text formats read
one way: each has one line parser (its ``line_parser``), and one
batcher turns parsed lines into chunks.  A sized reader's pre-scan, its
``chunks()`` and ``ingest watch``
(:func:`~repro.ingest.watch.open_stream_source`) all use them, so they
read the same records and fail with the same ``path:line`` error.
Writers stream any source out chunk by chunk, so conversion never
materializes the trace, and a failed export leaves no file.
"""

from __future__ import annotations

import hashlib
import io
import json
import time
import zipfile
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from repro import obs

from repro.ingest.source import (
    DEFAULT_CHUNK_RECORDS,
    TraceChunk,
    TraceSource,
)

__all__ = [
    "FORMATS",
    "WRITERS",
    "LackeySource",
    "MTraceSource",
    "CSVSource",
    "JSONLSource",
    "RTraceSource",
    "RTraceWriter",
    "detect_format",
    "open_trace_source",
    "register_format",
    "write_trace_file",
]

# ----------------------------------------------------------------------
# Text captures (lackey / csv / jsonl): one record per line
# ----------------------------------------------------------------------

#: A line parser: a stripped, non-blank line -> ``(addr, region)``, with
#: region None for a bare record, or None for a line that holds no record.
LineParser = Callable[[str], "tuple[int, int | None] | None"]

#: Largest byte address (int64) and region id (int32) a record may carry.
_MAX_ADDR = (1 << 63) - 1
_MAX_REGION = (1 << 31) - 1

#: Records per chunk while a sized text reader pre-scans its capture.
_SCAN_RECORDS = 1 << 16

#: Lackey record ops: data references and instruction fetches ("I").
_LACKEY_OPS = frozenset("ILSM")


def _is_lackey_record(s: str) -> bool:
    """Whether the stripped line ``s`` has the shape of a Lackey record.

    A record is an op letter (``I``, ``L``, ``S`` or ``M``), a space or a
    tab, then ``addr,size``.  Any other line (valgrind's ``==pid==``
    banners, the program's own output merged into the stream, such as
    ``Sorting 10 items`` or ``S 3 items``) holds no record.
    """
    return s[:1] in _LACKEY_OPS and s[1:2] in (" ", "\t") and "," in s


def _lackey_parser() -> LineParser:
    """A Lackey parser that counts ``I`` records in ``parse.instructions``.

    Data records are ``L``, ``S`` or ``M`` followed by ``addr,size``, the
    address in hex.  ``I`` records are instruction fetches.  Lines without
    a record's shape (:func:`_is_lackey_record`) are skipped.
    """

    def parse(s: str) -> tuple[int, None] | None:
        if not _is_lackey_record(s):
            return None
        if s[0] == "I":
            parse.instructions += 1
            return None
        try:
            return int(s[1:].split(",", 1)[0], 16), None
        except ValueError:
            raise ValueError(f"malformed lackey record: {s!r}") from None

    parse.instructions = 0
    return parse


def _parse_int(text: str) -> int:
    """A decimal or 0x-hex integer (surrounding whitespace allowed)."""
    return int(text, 16) if "x" in text or "X" in text else int(text)


def _csv_parser() -> LineParser:
    """A CSV parser: ``addr[,region]`` rows, decimal or 0x-hex.

    A first row whose address is not an integer is a header; a later one
    is malformed.  An empty region column makes the row bare.
    """
    header_allowed = True

    def parse(s: str) -> tuple[int, int | None] | None:
        nonlocal header_allowed
        cols = s.split(",")
        try:
            addr = _parse_int(cols[0])
        except ValueError:
            if header_allowed:
                header_allowed = False
                return None
            raise ValueError(f"malformed csv record: {s!r}") from None
        header_allowed = False
        if len(cols) < 2:
            return addr, None
        try:
            return addr, _parse_int(cols[1])
        except ValueError:
            if cols[1].strip():
                raise ValueError(f"malformed csv record: {s!r}") from None
            return addr, None

    return parse


def _jsonl_parser() -> LineParser:
    """A JSONL parser: one ``{"addr": ..., "region": ...}`` object per line.

    A present ``region`` key attributes the record.  Both fields must be
    JSON integers: truncating 1.9 to 1 would alias distinct addresses.
    """

    def parse(s: str) -> tuple[int, int | None]:
        try:
            obj = json.loads(s)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON: {exc}") from None
        if type(obj) is not dict or "addr" not in obj:
            raise ValueError(
                f"expected an object with an 'addr' field, got {s[:60]!r}"
            )
        addr = obj["addr"]
        if type(addr) is not int:  # bool and float are not int here
            raise ValueError(f"'addr' must be a JSON integer, got {addr!r}")
        if "region" not in obj:
            return addr, None
        region = obj["region"]
        if type(region) is not int:
            raise ValueError(
                f"'region' must be a JSON integer, got {region!r}"
            )
        return addr, region

    return parse


def _out_of_range(what: str, value: int, dtype: str) -> str:
    if value < 0:
        return f"negative {what} {value}"
    return f"{what} {value} does not fit in {dtype}"


def _chunks_from_lines(
    lines: Iterable[str],
    parse: LineParser,
    max_records: int,
    where: str,
) -> Iterator[TraceChunk]:
    """Batch one text capture's records into chunks of at most ``max_records``.

    Blank lines are skipped and ``parse`` reads every other line.  Record
    1 decides whether the capture is attributed: a later record that
    differs is an error, as are an address outside int64 and a region id
    outside int32.  Every error is prefixed with ``where:line``.
    """
    if max_records <= 0:
        raise ValueError(f"max_records must be positive, got {max_records}")
    addrs: list[int] = []
    regions: list[int] = []
    attributed: bool | None = None
    first = lineno = 0
    try:
        for lineno, line in enumerate(lines, 1):
            s = line.strip()
            if not s:
                continue
            record = parse(s)
            if record is None:
                continue
            addr, region = record
            if not 0 <= addr <= _MAX_ADDR:
                raise ValueError(_out_of_range("address", addr, "int64"))
            if attributed is None:
                attributed, first = region is not None, lineno
            elif attributed is (region is None):
                raise ValueError(
                    f"record {'has no' if attributed else 'has a'} region, "
                    f"unlike the first record (line {first}): the capture "
                    "mixes attributed and bare records"
                )
            addrs.append(addr)
            if attributed:
                if not 0 <= region <= _MAX_REGION:
                    raise ValueError(_out_of_range("region", region, "int32"))
                regions.append(region)
            if len(addrs) >= max_records:
                yield _text_chunk(addrs, regions, attributed)
                addrs, regions = [], []
    except ValueError as exc:
        raise ValueError(f"{where}:{lineno}: {exc}") from None
    if addrs:
        yield _text_chunk(addrs, regions, attributed)


def _text_chunk(
    addrs: list[int], regions: list[int], attributed: bool | None
) -> TraceChunk:
    return TraceChunk(
        addrs=np.array(addrs, dtype=np.int64),
        regions=np.array(regions, dtype=np.int32) if attributed else None,
    )


class _TextSource:
    """A sized reader over a text capture of one record per line.

    Opening reads the whole capture through the format's
    ``line_parser`` and the shared batcher, as :meth:`chunks` does, so a
    malformed capture fails here with its ``path:line`` and
    ``n_records`` is exact.  A parser that counts instructions (Lackey's
    ``I`` records) sets ``instructions``.
    """

    line_parser: Callable[[], LineParser]

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.line_bytes = 64
        self.region_names: dict[int, str] = {}
        parse = self.line_parser()
        self.n_records = sum(map(len, self._read(parse, _SCAN_RECORDS)))
        n_instr = getattr(parse, "instructions", 0)
        self.instructions = float(n_instr) if n_instr else None

    def chunks(
        self, max_records: int = DEFAULT_CHUNK_RECORDS
    ) -> Iterator[TraceChunk]:
        return self._read(self.line_parser(), max_records)

    def _read(
        self, parse: LineParser, max_records: int
    ) -> Iterator[TraceChunk]:
        with open(self.path, "r", errors="replace") as f:
            yield from _chunks_from_lines(
                f, parse, max_records, str(self.path)
            )


def _ascii_lines(head: bytes) -> list[str]:
    """A sniffed head's lines; none when it is not ASCII text."""
    try:
        return head.decode("ascii").splitlines()
    except UnicodeDecodeError:
        return []


class LackeySource(_TextSource):
    """Valgrind Lackey memory-trace text.

    Instruction-fetch records ("I") are not data accesses, but their
    count *is* the instruction count of the capture, so the pre-scan
    that sizes the source also recovers ``instructions`` for free.
    """

    name = "lackey"
    extensions = (".lackey", ".vgtrace")
    line_parser = staticmethod(_lackey_parser)

    @staticmethod
    def sniff(head: bytes) -> bool:
        for line in _ascii_lines(head)[:10]:
            s = line.strip()
            if not s or s[0] == "=":
                continue
            return _is_lackey_record(s)
        return False


class CSVSource(_TextSource):
    """``addr[,region]`` rows; decimal or 0x-hex; optional header line."""

    name = "csv"
    extensions = (".csv",)
    line_parser = staticmethod(_csv_parser)

    @staticmethod
    def sniff(head: bytes) -> bool:
        first = next((ln for ln in _ascii_lines(head) if ln.strip()), "")
        cols = [c.strip() for c in first.split(",")]
        if cols[0].lower() in ("addr", "address"):
            return True
        try:
            _parse_int(cols[0])
        except ValueError:
            return False
        return True


class JSONLSource(_TextSource):
    """One ``{"addr": ..., "region": ...}`` object per line."""

    name = "jsonl"
    extensions = (".jsonl", ".ndjson")
    line_parser = staticmethod(_jsonl_parser)

    @staticmethod
    def sniff(head: bytes) -> bool:
        first = next((ln for ln in _ascii_lines(head) if ln.strip()), "")
        return first.lstrip().startswith("{") and "addr" in first


# ----------------------------------------------------------------------
# Packed binary (DynamoRIO-memtrace-style fixed records)
# ----------------------------------------------------------------------

_MTRACE_MAGIC = b"RMEMTR01"

#: 16-byte little-endian record: address, access size, type, thread.
MTRACE_RECORD = np.dtype(
    [
        ("addr", "<u8"),
        ("size", "<u2"),
        ("type", "u1"),
        ("pad", "u1"),
        ("tid", "<u4"),
    ]
)

#: Header: magic, record count (u64), instructions (f64; NaN = unknown).
_MTRACE_HEADER_BYTES = len(_MTRACE_MAGIC) + 8 + 8


class MTraceSource:
    """Packed binary trace: fixed 16-byte records after a small header.

    The record layout follows DynamoRIO's memtrace samples (address,
    size, type, thread id per record); the header adds what a raw
    capture lacks — an exact record count and the instruction total —
    so consumers never need a sizing pass over gigabytes of records.
    """

    name = "mtrace"
    extensions = (".mtrace",)

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        with open(self.path, "rb") as f:
            header = f.read(_MTRACE_HEADER_BYTES)
        if len(header) < _MTRACE_HEADER_BYTES or not header.startswith(
            _MTRACE_MAGIC
        ):
            raise ValueError(f"{self.path}: not an mtrace file (bad magic)")
        self.n_records = int(np.frombuffer(header, "<u8", 1, 8)[0])
        instr = float(np.frombuffer(header, "<f8", 1, 16)[0])
        self.instructions = None if np.isnan(instr) else instr
        self.line_bytes = 64
        self.region_names: dict[int, str] = {}
        body = self.path.stat().st_size - _MTRACE_HEADER_BYTES
        if body != self.n_records * MTRACE_RECORD.itemsize:
            raise ValueError(
                f"{self.path}: header declares {self.n_records} records "
                f"but body holds {body} bytes "
                f"({body / MTRACE_RECORD.itemsize:g} records)"
            )

    @staticmethod
    def sniff(head: bytes) -> bool:
        return head.startswith(_MTRACE_MAGIC)

    def chunks(
        self, max_records: int = DEFAULT_CHUNK_RECORDS
    ) -> Iterator[TraceChunk]:
        if max_records <= 0:
            raise ValueError(f"max_records must be positive, got {max_records}")
        with open(self.path, "rb") as f:
            f.seek(_MTRACE_HEADER_BYTES)
            remaining = self.n_records
            while remaining > 0:
                count = min(remaining, max_records)
                records = np.fromfile(f, dtype=MTRACE_RECORD, count=count)
                if len(records) < count:
                    raise ValueError(
                        f"{self.path}: truncated body "
                        f"({remaining} records still expected)"
                    )
                remaining -= count
                yield TraceChunk(addrs=records["addr"].astype(np.int64))


# ----------------------------------------------------------------------
# Native .rtrace archive (chunked npz)
# ----------------------------------------------------------------------

_RTRACE_VERSION = 1


def _rtrace_fingerprint_hashers() -> tuple:
    return hashlib.blake2b(digest_size=16), hashlib.blake2b(digest_size=16)


def _rtrace_fingerprint(h_lines, h_regions, line_bytes: int) -> str:
    """Combine the per-array digests; invariant to chunk boundaries."""
    h = hashlib.blake2b(digest_size=16)
    h.update(h_lines.digest())
    h.update(h_regions.digest())
    h.update(f"line_bytes={line_bytes}".encode())
    return h.hexdigest()


class RTraceWriter:
    """Streaming writer for the native ``.rtrace`` archive.

    An ``.rtrace`` is a zip of npy chunk members plus a ``header.json``
    carrying ``line_bytes``, region names, record/instruction totals and
    a content fingerprint (blake2b over the line and region arrays,
    independent of how the stream was chunked).  Chunks are appended as
    they are produced, so conversion runs in bounded memory.
    """

    def __init__(
        self,
        path: str | Path,
        line_bytes: int,
        compression: int = zipfile.ZIP_DEFLATED,
    ) -> None:
        if line_bytes <= 0:
            raise ValueError(f"line_bytes must be positive, got {line_bytes}")
        self.path = Path(path)
        self.line_bytes = line_bytes
        # ZIP_STORED archives (the artifact store's layout) can be
        # memory-mapped by readers, so their chunks are written aligned;
        # the content fingerprint is invariant to this choice.
        self._zf = zipfile.ZipFile(self.path, "w", compression)
        self._n_chunks = 0
        self._n_records = 0
        self._h_lines, self._h_regions = _rtrace_fingerprint_hashers()
        self._closed = False

    def append(self, lines: np.ndarray, regions: np.ndarray) -> None:
        """Append one chunk of (line address, region id) records."""
        if self._closed:
            raise ValueError("writer is closed")
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        regions = np.ascontiguousarray(regions, dtype=np.int32)
        if len(lines) != len(regions):
            raise ValueError("lines and regions must have equal length")
        if len(lines) == 0:
            return
        self._h_lines.update(lines.tobytes())
        self._h_regions.update(regions.tobytes())
        self._write_member(f"chunk_{self._n_chunks:06d}.lines.npy", lines)
        self._write_member(f"chunk_{self._n_chunks:06d}.regions.npy", regions)
        self._n_chunks += 1
        self._n_records += len(lines)

    @property
    def n_records(self) -> int:
        """Records appended so far."""
        return self._n_records

    def _write_member(self, name: str, arr: np.ndarray) -> None:
        buf = io.BytesIO()
        np.lib.format.write_array(buf, arr, allow_pickle=False)
        entry: str | zipfile.ZipInfo = name
        if self._zf.compression == zipfile.ZIP_STORED:
            from repro.store.mmapzip import aligned_entry

            # The zip writer sits where this member's header will go.
            entry = aligned_entry(name, self._zf.fp.tell())
        self._zf.writestr(entry, buf.getvalue())

    def close(
        self,
        instructions: float | None = None,
        region_names: dict[int, str] | None = None,
    ) -> dict:
        """Finish the archive; returns the header that was written."""
        if self._closed:
            raise ValueError("writer is closed")
        header = {
            "format": "rtrace",
            "version": _RTRACE_VERSION,
            "line_bytes": self.line_bytes,
            "n_records": self._n_records,
            "n_chunks": self._n_chunks,
            "instructions": instructions,
            "region_names": {
                str(rid): name for rid, name in (region_names or {}).items()
            },
            "fingerprint": _rtrace_fingerprint(
                self._h_lines, self._h_regions, self.line_bytes
            ),
        }
        self._zf.writestr("header.json", json.dumps(header, sort_keys=True))
        self._zf.close()
        self._closed = True
        return header


class RTraceSource:
    """Reader for the native ``.rtrace`` archive."""

    name = "rtrace"
    extensions = (".rtrace",)

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        try:
            with zipfile.ZipFile(self.path) as zf:
                header = json.loads(zf.read("header.json"))
        except (zipfile.BadZipFile, KeyError, json.JSONDecodeError) as exc:
            raise ValueError(f"{self.path}: not an rtrace archive: {exc}") from None
        if header.get("format") != "rtrace":
            raise ValueError(f"{self.path}: not an rtrace archive")
        if header.get("version") != _RTRACE_VERSION:
            raise ValueError(
                f"{self.path}: unsupported rtrace version "
                f"{header.get('version')!r} (expected {_RTRACE_VERSION})"
            )
        self.header = header
        try:
            self.n_records = int(header["n_records"])
            self.n_chunks = int(header["n_chunks"])
            self.line_bytes = int(header["line_bytes"])
            instr = header.get("instructions")
            self.instructions = float(instr) if instr is not None else None
            self.region_names = {
                int(rid): name
                for rid, name in header["region_names"].items()
            }
            self.fingerprint = header["fingerprint"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"{self.path}: malformed rtrace header: {exc!r}"
            ) from None

    @staticmethod
    def sniff(head: bytes) -> bool:
        return head.startswith(b"PK\x03\x04")

    def _load_member(self, zf: zipfile.ZipFile, name: str) -> np.ndarray:
        from repro.devtools import faults
        from repro.retry import call_with_retries

        def read() -> np.ndarray:
            faults.maybe_inject("rtrace-chunk", key=name)
            with zf.open(name) as f:
                raw = faults.filter_bytes("rtrace-chunk", f.read(), key=name)
            return np.lib.format.read_array(
                io.BytesIO(raw), allow_pickle=False
            )

        # A torn or transiently unreadable member costs a bounded
        # re-read (decode errors included: a mid-write reader sees a
        # short member once, the retry sees the finished bytes).
        return call_with_retries(
            read,
            retryable=(OSError, ValueError, zipfile.BadZipFile),
            key=name,
        )

    def _mapped(self):
        """A :class:`~repro.store.mmapzip.MappedArchive`, or None.

        Opened lazily and cached: stored (uncompressed) archives — the
        artifact store's layout — serve chunk members as read-only
        views over one shared mapping, so N workers materializing the
        same trace share one page-cache copy.
        """
        if not hasattr(self, "_mapped_archive"):
            from repro.store.mmapzip import MappedArchive

            try:
                self._mapped_archive = MappedArchive(self.path)
            except (OSError, ValueError, zipfile.BadZipFile):
                self._mapped_archive = None
        return self._mapped_archive

    def line_chunks(
        self, max_records: int = DEFAULT_CHUNK_RECORDS
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(lines, regions)`` exactly as stored, zero-copy if mappable.

        The native archive stores line ids, not byte addresses;
        consumers that want lines (``materialize``) read them here and
        skip the ``line * bytes -> addr // bytes`` round trip
        :meth:`chunks` performs for the generic protocol.  Deflated
        members fall back to decompression per member.
        """
        if max_records <= 0:
            raise ValueError(f"max_records must be positive, got {max_records}")
        mapped = self._mapped()
        zf = None
        try:
            for c in range(self.n_chunks):
                lname = f"chunk_{c:06d}.lines.npy"
                rname = f"chunk_{c:06d}.regions.npy"
                traced = obs.enabled()
                t0 = time.perf_counter() if traced else 0.0
                lines = regions = None
                if mapped is not None:
                    try:
                        lines = mapped.npy_member(lname)
                        regions = mapped.npy_member(rname)
                    except (KeyError, ValueError):
                        lines = regions = None
                if lines is None or regions is None:
                    if zf is None:
                        zf = zipfile.ZipFile(self.path)
                    lines = self._load_member(zf, lname)
                    regions = self._load_member(zf, rname)
                if traced:
                    dt = time.perf_counter() - t0
                    nbytes = int(lines.nbytes) + int(regions.nbytes)
                    obs.histogram("ingest.chunk_decode_s", dt)
                    obs.event(
                        "ingest.chunk_decoded",
                        chunk=c,
                        nbytes=nbytes,
                        bytes_per_s=round(nbytes / dt) if dt > 0 else None,
                        mapped=mapped is not None and zf is None,
                    )
                if len(lines) != len(regions):
                    raise ValueError(
                        f"{self.path}: chunk {c} has mismatched "
                        "lines/regions lengths"
                    )
                for lo in range(0, len(lines), max_records):
                    hi = min(lo + max_records, len(lines))
                    yield lines[lo:hi], regions[lo:hi]
        finally:
            if zf is not None:
                zf.close()

    def chunks(
        self, max_records: int = DEFAULT_CHUNK_RECORDS
    ) -> Iterator[TraceChunk]:
        for lines, regions in self.line_chunks(max_records):
            yield TraceChunk(
                addrs=lines * self.line_bytes,
                regions=regions,
            )

    def verify_fingerprint(self) -> bool:
        """Re-hash the chunk payload against the header fingerprint.

        One decompression pass checks everything: the content hash and
        that the chunks really hold the declared record count.
        """
        h_lines, h_regions = _rtrace_fingerprint_hashers()
        total = 0
        with zipfile.ZipFile(self.path) as zf:
            for c in range(self.n_chunks):
                lines = self._load_member(zf, f"chunk_{c:06d}.lines.npy")
                regions = self._load_member(zf, f"chunk_{c:06d}.regions.npy")
                if len(lines) != len(regions):
                    return False
                total += len(lines)
                h_lines.update(
                    np.ascontiguousarray(lines, dtype=np.int64).tobytes()
                )
                h_regions.update(
                    np.ascontiguousarray(regions, dtype=np.int32).tobytes()
                )
        if total != self.n_records:
            return False
        recomputed = _rtrace_fingerprint(h_lines, h_regions, self.line_bytes)
        return recomputed == self.fingerprint


# ----------------------------------------------------------------------
# Writers (streamed; any source -> any interchange format)
# ----------------------------------------------------------------------


def _write_lackey(path: Path, source: TraceSource, max_records: int) -> None:
    with open(path, "w") as f:
        for chunk in source.chunks(max_records):
            f.writelines(
                f" L {addr:08X},{source.line_bytes}\n"
                for addr in chunk.addrs.tolist()
            )


def _write_mtrace(path: Path, source: TraceSource, max_records: int) -> None:
    if source.n_records is None:
        # The header carries an exact record count, which an unbounded
        # source cannot declare up front.
        raise ValueError(
            "mtrace writes a record-count header; cannot export an "
            "unbounded source (n_records is None) — convert to a sized "
            "format (csv/jsonl/rtrace) instead"
        )
    with open(path, "wb") as f:
        f.write(_MTRACE_MAGIC)
        # Explicit little-endian, like the record body: native order
        # would corrupt the header on big-endian hosts.
        f.write(np.uint64(source.n_records).astype("<u8").tobytes())
        instr = source.instructions
        f.write(
            np.float64(instr if instr is not None else np.nan)
            .astype("<f8")
            .tobytes()
        )
        n_written = 0
        for chunk in source.chunks(max_records):
            records = np.zeros(len(chunk), dtype=MTRACE_RECORD)
            records["addr"] = chunk.addrs.astype(np.uint64)
            records["size"] = source.line_bytes
            records.tofile(f)
            n_written += len(chunk)
    if n_written != source.n_records:
        raise ValueError(
            f"source yielded {n_written} records but declared "
            f"{source.n_records}; refusing to leave a lying header"
        )


def _write_csv(path: Path, source: TraceSource, max_records: int) -> None:
    with open(path, "w") as f:
        wrote_header = False
        for chunk in source.chunks(max_records):
            if not wrote_header:
                f.write(
                    "addr,region\n" if chunk.regions is not None else "addr\n"
                )
                wrote_header = True
            if chunk.regions is not None:
                f.writelines(
                    f"{a},{r}\n"
                    for a, r in zip(
                        chunk.addrs.tolist(), chunk.regions.tolist()
                    )
                )
            else:
                f.writelines(f"{a}\n" for a in chunk.addrs.tolist())
        if not wrote_header:
            f.write("addr\n")


def _write_jsonl(path: Path, source: TraceSource, max_records: int) -> None:
    with open(path, "w") as f:
        for chunk in source.chunks(max_records):
            if chunk.regions is not None:
                f.writelines(
                    f'{{"addr": {a}, "region": {r}}}\n'
                    for a, r in zip(
                        chunk.addrs.tolist(), chunk.regions.tolist()
                    )
                )
            else:
                f.writelines(
                    f'{{"addr": {a}}}\n' for a in chunk.addrs.tolist()
                )


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

#: Reader registry: format name -> TraceSource class.
FORMATS: dict[str, type] = {}

#: Writer registry: format name -> write function.  ``rtrace`` is not
#: here because producing one runs the full attribution pipeline — see
#: :func:`repro.ingest.pipeline.convert_to_rtrace`.
WRITERS: dict[str, Callable[[Path, TraceSource, int], None]] = {
    "lackey": _write_lackey,
    "mtrace": _write_mtrace,
    "csv": _write_csv,
    "jsonl": _write_jsonl,
}


def register_format(cls: type) -> type:
    """Register a reader class (usable as a decorator by plugins)."""
    for attr in ("name", "extensions", "sniff", "chunks"):
        if not hasattr(cls, attr):
            raise TypeError(f"{cls.__name__} is missing {attr!r}")
    FORMATS[cls.name] = cls
    return cls


for _cls in (LackeySource, MTraceSource, CSVSource, JSONLSource, RTraceSource):
    register_format(_cls)


def detect_format(path: str | Path) -> str:
    """Resolve a trace file's format by extension, then content sniff."""
    path = Path(path)
    suffix = path.suffix.lower()
    for name, cls in FORMATS.items():
        if suffix in cls.extensions:
            return name
    try:
        with path.open("rb") as f:
            head = f.read(4096)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    # Binary magics are unambiguous; try them before text heuristics.
    for name in ("rtrace", "mtrace", "jsonl", "lackey", "csv"):
        cls = FORMATS.get(name)
        if cls is not None and cls.sniff(head):
            return name
    raise ValueError(
        f"cannot detect trace format of {path}; "
        f"pass one of: {', '.join(sorted(FORMATS))}"
    )


def open_trace_source(path: str | Path, fmt: str | None = None) -> TraceSource:
    """Open a trace file as a :class:`TraceSource`.

    Args:
        path: trace file.
        fmt: format name; auto-detected when omitted.
    """
    if fmt is None:
        fmt = detect_format(path)
    try:
        cls = FORMATS[fmt]
    except KeyError:
        raise ValueError(
            f"unknown trace format {fmt!r}; known: {', '.join(sorted(FORMATS))}"
        ) from None
    return cls(path)


def write_trace_file(
    path: str | Path,
    source: TraceSource,
    fmt: str | None = None,
    max_records: int = DEFAULT_CHUNK_RECORDS,
) -> None:
    """Export a source to an interchange format, streaming chunk by chunk.

    Args:
        path: destination file.
        source: any :class:`TraceSource` (e.g. :class:`ArraySource`
            wrapping a built trace).
        fmt: one of :data:`WRITERS`; inferred from the extension when
            omitted.
        max_records: chunk size to stream with.

    A failed export leaves no file at ``path``.
    """
    path = Path(path)
    if fmt is None:
        suffix = path.suffix.lower()
        for name, cls in FORMATS.items():
            if suffix in cls.extensions and name in WRITERS:
                fmt = name
                break
        else:
            raise ValueError(
                f"cannot infer writable format from {path.name!r}; "
                f"pass one of: {', '.join(sorted(WRITERS))}"
            )
    try:
        writer = WRITERS[fmt]
    except KeyError:
        raise ValueError(
            f"no writer for format {fmt!r}; known: {', '.join(sorted(WRITERS))}"
        ) from None
    try:
        writer(path, source, max_records)
    except BaseException:
        # A partial export reads as a whole, shorter trace (or an mtrace
        # whose header lies about its body): never leave one behind.
        path.unlink(missing_ok=True)
        raise
