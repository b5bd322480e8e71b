"""Trace artifacts: ``.rtrace`` archives keyed by content fingerprint.

The ``.rtrace`` header already carries a blake2b content fingerprint
that is invariant to chunk boundaries *and* to zip compression (it
hashes the line/region arrays, not the container bytes), so an archive
can be re-filed — or rewritten uncompressed for zero-copy readers —
without changing its key.  Workload names attach through the store's
name index rather than the filename, so one payload can serve many
registrations.  This is the only persistent home of registered traces:
``python -m repro ingest register`` publishes here, and
:func:`repro.workloads.build_workload` resolves names here.
"""

from __future__ import annotations

import zipfile
from pathlib import Path

from repro.store.artifacts import ArtifactStore, check_name, provenance_record
from repro.store.mmapzip import write_stored_zip

__all__ = ["publish_trace"]


def publish_trace(
    store: ArtifactStore,
    src: str | Path,
    name: str | None = None,
    inputs: dict | None = None,
) -> tuple[str, Path]:
    """Publish an ``.rtrace`` archive into the store.

    Validates ``name`` (see :func:`check_name`) and the archive
    (parseable header, known instruction count — a workload needs one),
    rewrites every member stored and 64-byte aligned so reads can be
    mapped, publishes under the content fingerprint, and binds ``name``
    when given.  Returns ``(fingerprint, payload_path)``.
    """
    from repro.ingest import RTraceSource

    if name is not None:
        check_name(name)
    src = Path(src)
    source = RTraceSource(src)  # raises ValueError on a malformed archive
    if source.instructions is None:
        raise ValueError(
            f"{src}: archive has no instruction count; re-run the "
            "conversion with --instructions or --apki"
        )
    fingerprint = source.fingerprint
    meta = provenance_record(
        "traces",
        fingerprint,
        builder="repro.store.traces.publish_trace",
        inputs={
            "source": str(src),
            "n_records": source.n_records,
            "line_bytes": source.line_bytes,
            "instructions": source.instructions,
            **(inputs or {}),
        },
    )
    dst = store.publish(
        "traces",
        fingerprint,
        lambda tmp: _copy_as_stored(src, tmp),
        provenance=meta,
    )
    if name is not None:
        store.bind_name(name, "traces", fingerprint)
    return fingerprint, dst


def _copy_as_stored(src: Path, tmp: Path) -> None:
    """Copy a zip with every member stored and 64-byte aligned (mappable)."""
    with zipfile.ZipFile(src) as zin:
        write_stored_zip(tmp, ((i.filename, zin.read(i)) for i in zin.infolist()))
