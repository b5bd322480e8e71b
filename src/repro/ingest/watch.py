"""Follow a live text trace (growing file or stdin) as an unbounded source.

The ingestion side of Online Whirlpool: :func:`open_stream_source`
turns ``stdin`` or a file that is still being written into an
*unbounded* :class:`~repro.ingest.source.IterableSource` —
``n_records`` is ``None`` and records are parsed as they appear — and
:func:`run_watch` drives :class:`~repro.core.whirltool.online.
OnlineWhirlTool` over it, emitting pool assignments as each epoch
seals (the ``python -m repro ingest watch`` command).

Only the text formats (lackey / csv / jsonl) are followable: they are
what live instrumentation pipes emit, and they can be parsed a line at
a time without a record count up front.  Line parsing matches the
sized readers in :mod:`repro.ingest.formats` — the same header rule,
and the same rejection of captures that mix attributed and bare
records — so a capture classified live and the same capture ingested
after the fact see the same records or fail alike.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Iterator, TextIO

import numpy as np

from repro import obs
from repro.ingest.formats import _LACKEY_DATA_OPS, _parse_int
from repro.ingest.source import IterableSource, TraceChunk
from repro.retry import call_with_retries

__all__ = ["follow_lines", "open_stream_source", "run_watch"]

#: Records per emitted chunk while following.
DEFAULT_BATCH_RECORDS = 4096


def follow_lines(
    stream: TextIO,
    poll_interval: float = 0.5,
    idle_timeout: float | None = None,
    sleep: Callable[[float], None] = time.sleep,
    path: str | Path | None = None,
) -> Iterator[str]:
    """Yield lines from ``stream``, waiting for more at EOF (``tail -f``).

    Args:
        stream: a text stream positioned where following should start.
        poll_interval: seconds to sleep between EOF re-reads.
        idle_timeout: stop after this many seconds with no new data;
            ``None`` follows forever (until the caller breaks), and
            ``0`` reads exactly what is there now and stops — the mode
            batch tests and one-shot pipes use.
        sleep: injectable for tests.
        path: the on-disk name behind ``stream``, when there is one.
            Enables log-rotation handling at EOF: if the name points at
            a different inode (the writer rotated and recreated the
            file), the new file is opened and followed from its start;
            if the file shrank in place (truncation), following rewinds
            to offset 0.  ``None`` (pipes, stdin, test streams)
            disables the checks.

    Reads are retried through the transient-I/O policy
    (:data:`repro.retry.IO_RETRY`), so a momentary ``OSError`` — an
    NFS blip, a mid-rotation read — costs a bounded re-read, not a
    dead follower.
    """
    from repro.devtools import faults

    watch = Path(path) if path is not None else None
    site_key = str(watch) if watch is not None else ""
    holder = {"stream": stream}
    high_water = 0
    owns_stream = False  # did rotation make us open the current stream?

    def read_line() -> str:
        def _read() -> str:
            faults.maybe_inject("follow-read", key=site_key)
            return holder["stream"].readline()

        return call_with_retries(_read, key=site_key, sleep=sleep)

    def check_rotation() -> bool:
        """At EOF: reopen on rotation, rewind on truncation.

        Returns True when the data source changed (so the caller should
        re-read immediately instead of counting idle time).
        """
        nonlocal high_water, owns_stream
        if watch is None:
            return False
        current = holder["stream"]
        try:
            disk = os.stat(watch)
            here = os.fstat(current.fileno())
        except (OSError, ValueError, AttributeError):
            return False  # rotated away with no successor (yet), or a
            # stream with no real file behind it
        if (disk.st_ino, disk.st_dev) != (here.st_ino, here.st_dev):
            # Rotated: a new file took over the name; follow it from
            # the start.  The old handle (ours or the caller's) points
            # at an orphaned inode nobody will write again.
            try:
                fresh = open(watch, "r", errors="replace")
            except OSError:
                return False  # successor vanished between stat and open
            current.close()
            holder["stream"] = fresh
            owns_stream = True
            obs.event(
                "watch.rotation", path=site_key, high_water=high_water
            )
            obs.counter("watch.rotations")
            high_water = 0
            return True
        if disk.st_size < high_water:
            # Truncated in place: everything re-written from offset 0.
            current.seek(0)
            obs.event(
                "watch.truncation",
                path=site_key,
                high_water=high_water,
                size=disk.st_size,
            )
            obs.counter("watch.truncations")
            high_water = disk.st_size
            return True
        high_water = max(high_water, disk.st_size)
        return False

    idle = 0.0
    try:
        while True:
            line = read_line()
            if line:
                idle = 0.0
                # A final line without a newline may still be mid-write;
                # hold it until the writer finishes it or goes idle.
                if not line.endswith("\n"):
                    buffered = line
                    while idle_timeout is None or idle < idle_timeout:
                        rest = read_line()
                        if rest:
                            buffered += rest
                            if buffered.endswith("\n"):
                                break
                            continue
                        if idle_timeout == 0 or check_rotation():
                            break
                        sleep(poll_interval)
                        idle += poll_interval
                    yield buffered
                    idle = 0.0
                    continue
                yield line
                continue
            if check_rotation():
                continue
            if idle_timeout is not None and idle >= idle_timeout:
                return
            if idle_timeout == 0:
                return
            sleep(poll_interval)
            idle += poll_interval
    finally:
        if owns_stream:
            holder["stream"].close()


# ----------------------------------------------------------------------
# Line parsers (one record per text line, matching the sized readers)
# ----------------------------------------------------------------------


def _parse_lackey(line: str) -> tuple[int, int | None] | None:
    s = line.strip()
    if not s or s[0] == "=":
        return None
    op = s[0]
    if op not in _LACKEY_DATA_OPS:
        return None  # instruction fetches and noise are not data records
    addr_text = s[1:].strip().split(",", 1)[0].strip()
    if not addr_text:
        raise ValueError(f"malformed lackey record: {line!r}")
    try:
        return int(addr_text, 16), None
    except ValueError:
        raise ValueError(f"malformed lackey record: {line!r}") from None


def _csv_parser() -> Callable[[str], tuple[int, int | None] | None]:
    """A CSV line parser for one stream.

    Like :class:`~repro.ingest.formats.CSVSource`, a first row whose
    address does not parse as an integer is a header; a later one is
    malformed.
    """
    first = True

    def parse(line: str) -> tuple[int, int | None] | None:
        nonlocal first
        s = line.strip()
        if not s:
            return None
        cols = [c.strip() for c in s.split(",")]
        header_allowed, first = first, False
        try:
            addr = _parse_int(cols[0])
        except ValueError:
            if header_allowed:
                return None  # header line
            raise ValueError(f"malformed csv record: {line!r}") from None
        region = _parse_int(cols[1]) if len(cols) > 1 and cols[1] else None
        return addr, region

    return parse


def _parse_jsonl(line: str) -> tuple[int, int | None] | None:
    s = line.strip()
    if not s:
        return None
    try:
        obj = json.loads(s)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON record: {exc}") from None
    if not isinstance(obj, dict) or "addr" not in obj:
        raise ValueError(
            f"expected an object with an 'addr' field, got {s[:60]!r}"
        )
    # A present "region" key attributes the record, as in JSONLSource.
    fields = {key: obj[key] for key in ("addr", "region") if key in obj}
    for key, value in fields.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(
                f"{key!r} must be a JSON integer, got {value!r}"
            )
    return fields["addr"], fields.get("region")


#: Format -> a factory of line parsers, one per followed stream.
_PARSERS: dict[
    str, Callable[[], Callable[[str], tuple[int, int | None] | None]]
] = {
    "lackey": lambda: _parse_lackey,
    "csv": _csv_parser,
    "jsonl": lambda: _parse_jsonl,
}


def _chunks_from_lines(
    lines: Iterator[str],
    fmt: str,
    batch_records: int,
) -> Iterator[TraceChunk]:
    """Batch parsed (addr, region) records into :class:`TraceChunk`\\ s.

    The first record decides whether the stream carries regions.  Like
    the sized readers, a capture that mixes attributed and bare records
    is rejected: ``ValueError`` at the first record that differs.
    """
    parse = _PARSERS[fmt]()
    addrs: list[int] = []
    regions: list[int] = []
    attributed: bool | None = None
    n = 0
    for line in lines:
        rec = parse(line)
        if rec is None:
            continue
        addr, region = rec
        n += 1
        if attributed is None:
            attributed = region is not None
        elif attributed != (region is not None):
            raise ValueError(
                f"record {n} {'has no' if attributed else 'has a'} region, "
                "unlike record 1 (the capture mixes attributed and bare "
                "records)"
            )
        addrs.append(addr)
        if region is not None:
            regions.append(region)
        if len(addrs) >= batch_records:
            yield _chunk(addrs, regions, bool(attributed))
            addrs, regions = [], []
    if addrs:
        yield _chunk(addrs, regions, bool(attributed))


def _chunk(
    addrs: list[int], regions: list[int], attributed: bool
) -> TraceChunk:
    return TraceChunk(
        addrs=np.array(addrs, dtype=np.int64),
        regions=np.array(regions, dtype=np.int32) if attributed else None,
    )


def open_stream_source(
    path: str,
    fmt: str,
    line_bytes: int = 64,
    batch_records: int = DEFAULT_BATCH_RECORDS,
    poll_interval: float = 0.5,
    idle_timeout: float | None = None,
    stream: TextIO | None = None,
) -> IterableSource:
    """Open a live text trace as an unbounded (one-shot) source.

    Args:
        path: file to follow, or ``"-"`` for stdin (stdin is a pipe:
            EOF ends the stream, no polling).
        fmt: one of ``lackey`` / ``csv`` / ``jsonl`` (live streams
            cannot be sized or content-sniffed, so the format is
            explicit).
        line_bytes: cache-line size to profile at.
        batch_records: records per emitted chunk.
        poll_interval: seconds between EOF re-reads when following a
            file.
        idle_timeout: stop after this long with no new data (``None``:
            follow until interrupted; ``0``: read once to EOF).
        stream: pre-opened text stream (tests); overrides ``path``.
    """
    if fmt not in _PARSERS:
        raise ValueError(
            f"cannot follow format {fmt!r}; followable formats: "
            f"{', '.join(sorted(_PARSERS))}"
        )
    if batch_records <= 0:
        raise ValueError(
            f"batch_records must be positive, got {batch_records}"
        )

    def _gen() -> Iterator[TraceChunk]:
        watch_path: Path | None = None
        if stream is not None:
            f = stream
            close = False
        elif path == "-":
            f = sys.stdin
            close = False
        else:
            watch_path = Path(path)
            f = open(watch_path, "r", errors="replace")
            close = True
        # A pipe's EOF is final: never poll stdin.  Real files also get
        # rotation/truncation handling (watch_path).
        timeout = 0.0 if f is sys.stdin else idle_timeout
        try:
            yield from _chunks_from_lines(
                follow_lines(f, poll_interval, timeout, path=watch_path),
                fmt,
                batch_records,
            )
        finally:
            if close:
                f.close()

    return IterableSource(_gen(), line_bytes=line_bytes)


def run_watch(
    source: IterableSource,
    epoch_records: int,
    n_pools: int = 3,
    chunk_bytes: int = 64 * 1024,
    n_chunks: int = 400,
    sample_shift: int = 3,
    out: TextIO | None = None,
) -> int:
    """Classify a live stream, printing pool assignments per epoch.

    Returns a process exit code.  An interrupt (Ctrl-C) finalizes
    cleanly: the partial trailing epoch is sealed and the final pools
    printed before returning.
    """
    from repro.core.whirltool.online import OnlineWhirlTool

    out = out if out is not None else sys.stdout
    tool = OnlineWhirlTool(
        chunk_bytes=chunk_bytes,
        n_chunks=n_chunks,
        sample_shift=sample_shift,
        n_pools=n_pools,
        epoch_records=epoch_records,
    )
    tool.start(source)
    names = dict(source.region_names)
    interrupted = False
    try:
        for chunk in source.chunks(epoch_records):
            for report in tool.push(chunk):
                _print_report(report, names, out)
    except KeyboardInterrupt:
        interrupted = True
    try:
        result = tool.finish()
    except ValueError as exc:
        print(f"ingest watch failed: {exc}", file=sys.stderr)
        return 2
    label = "interrupted" if interrupted else "end of stream"
    print(
        f"{label}: {tool.sealed_epochs} epochs, final pools:", file=out
    )
    for line in _pool_lines(result.assignments(n_pools), names):
        print(f"  {line}", file=out)
    return 0


def _print_report(report, names: dict[int, str], out: TextIO) -> None:
    tags = []
    if report.phase_change:
        tags.append("phase-change")
    if report.reclustered:
        tags.append("reclustered")
    tag = f" [{', '.join(tags)}]" if tags else ""
    print(
        f"epoch {report.epoch}  records<={report.end_record}{tag}",
        file=out,
    )
    if report.assignments is not None:
        for line in _pool_lines(report.assignments, names):
            print(f"  {line}", file=out)


def _pool_lines(
    assignments: dict[int, int], names: dict[int, str]
) -> list[str]:
    pools: dict[int, list[str]] = {}
    for cp, pool in assignments.items():
        pools.setdefault(pool, []).append(names.get(cp, str(cp)))
    return [
        f"pool {pool}: {', '.join(sorted(members))}"
        for pool, members in sorted(pools.items())
    ]
