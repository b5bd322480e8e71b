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
a time without a record count up front.  A followed stream is read by
the sized readers' own line parser and batcher (see
:mod:`repro.ingest.formats`), so a capture classified live and the
same capture ingested after the fact see the same records or fail with
the same error, which names ``path:line`` (``<stdin>:line`` for a
pipe).  Lines are numbered as the follower reads them, so after a log
rotation the count runs on into the new file.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path
from typing import Callable, Iterator, TextIO

from repro import obs
from repro.ingest.formats import FORMATS, _chunks_from_lines
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
        fmt: a registered format with a ``line_parser``: ``lackey`` /
            ``csv`` / ``jsonl`` (live streams cannot be sized or
            content-sniffed, so the format is explicit).
        line_bytes: cache-line size to profile at.
        batch_records: records per emitted chunk.
        poll_interval: seconds between EOF re-reads when following a
            file.
        idle_timeout: stop after this long with no new data (``None``:
            follow until interrupted; ``0``: read once to EOF).
        stream: pre-opened text stream (tests); overrides ``path``.
    """
    followable = sorted(
        name for name, cls in FORMATS.items() if hasattr(cls, "line_parser")
    )
    if fmt not in followable:
        raise ValueError(
            f"cannot follow format {fmt!r}; followable formats: "
            f"{', '.join(followable)}"
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
                FORMATS[fmt].line_parser(),
                batch_records,
                "<stdin>" if path == "-" else str(Path(path)),
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
