"""Profile artifacts: the cached miss-curve payload, store-side.

The payload schema is the profile cache's (format version 2): a flat
npz with ``format_version``, ``vc_ids``, and per-VC arrays ``a_{i}``
(accesses per interval), ``i_{i}`` (instructions per interval), and
``m_{i}_{t}`` (the interval-``t`` miss curve).  The store publishes it
*uncompressed* (``np.savez``) so readers can map members zero-copy via
:mod:`repro.store.mmapzip`; ``load_profile`` falls back to ``np.load``
for ``savez_compressed`` files, so the committed, read-only
``.profile_cache/`` pile keeps loading byte-for-byte.
"""

from __future__ import annotations

import zipfile
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:
    from repro.curves.miss_curve import MissCurve
    from repro.store.artifacts import ArtifactStore

__all__ = [
    "FORMAT_VERSION",
    "decode_payload",
    "encode_payload",
    "load_profile",
    "publish_profile",
    "verify_profile_payload",
]

#: On-disk payload version — single source of truth for the cache format
#: (``repro.sim.profiling`` re-exports it as ``_FORMAT_VERSION``).
#: Version 1 fingerprints hashed only a stride-257 sample of the trace,
#: so short traces could collide; loads reject any other version.
FORMAT_VERSION = 2


def encode_payload(
    curves: dict[int, list[MissCurve]],
) -> dict[str, np.ndarray]:
    """Flatten per-VC, per-interval curves into the npz payload."""
    payload: dict[str, np.ndarray] = {
        "format_version": np.array(FORMAT_VERSION, dtype=np.int64),
        "vc_ids": np.array(sorted(curves), dtype=np.int64),
    }
    for i, vc in enumerate(sorted(curves)):
        series = curves[vc]
        payload[f"a_{i}"] = np.array([c.accesses for c in series])
        payload[f"i_{i}"] = np.array([c.instructions for c in series])
        for t, c in enumerate(series):
            payload[f"m_{i}_{t}"] = c.misses
    return payload


def decode_payload(
    data: Any, chunk_bytes: int, n_intervals: int
) -> dict[int, list[MissCurve]] | None:
    """Rebuild curves from a payload mapping; None on any staleness.

    ``data`` is either an ``NpzFile`` or a mapped-member dict — anything
    supporting ``in`` and ``[]``.  A stale or partially written payload
    (missing arrays, wrong version) returns ``None`` so callers fall
    back to re-profiling rather than crash.
    """
    from repro.curves.miss_curve import MissCurve

    try:
        version = (
            int(data["format_version"]) if "format_version" in data else 1
        )
        if version != FORMAT_VERSION:
            return None
        out: dict[int, list[MissCurve]] = {}
        vc_ids = data["vc_ids"]
        for i, vc in enumerate(vc_ids.tolist()):
            # Each NpzFile lookup inflates the member afresh: read the
            # per-VC counts once, not once per interval.
            accesses = data[f"a_{i}"]
            instructions = data[f"i_{i}"]
            curves = []
            for t in range(n_intervals):
                curve = MissCurve(
                    misses=data[f"m_{i}_{t}"],
                    chunk_bytes=chunk_bytes,
                    accesses=float(accesses[t]),
                    instructions=float(instructions[t]),
                )
                curves.append(curve)
            out[int(vc)] = curves
    except (
        KeyError,
        IndexError,
        ValueError,
        OSError,
        zlib.error,
        zipfile.BadZipFile,
    ):
        return None
    return out


def load_profile(
    path: str | Path, chunk_bytes: int, n_intervals: int
) -> dict[int, list[MissCurve]] | None:
    """Load a profile payload, zero-copy when the file permits it.

    Mapped payloads hand :class:`MissCurve` read-only views over one
    shared mapping (N workers share one page-cache copy); compressed or
    foreign files fall back to ``np.load`` and, failing that, ``None``.
    """
    from repro import obs
    from repro.devtools import faults
    from repro.retry import call_with_retries
    from repro.store.mmapzip import npz_arrays

    path = Path(path)
    if not path.exists():
        return None

    def read_mapped() -> Any:
        faults.maybe_inject("store-read", key=str(path))
        return npz_arrays(path)

    try:
        # A transient read failure costs a bounded re-read; only a
        # persistent one falls through to the np.load path / None.
        arrays = call_with_retries(read_mapped, key=str(path))
    except (OSError, ValueError, zipfile.BadZipFile):
        arrays = None
    if arrays is not None:
        obs.counter("store.load.mmap")
        return decode_payload(arrays, chunk_bytes, n_intervals)

    def read_npz() -> Any:
        faults.maybe_inject("store-read", key=str(path))
        return np.load(path)

    try:
        data = call_with_retries(read_npz, key=str(path))
    except (OSError, ValueError, zipfile.BadZipFile):
        return None
    obs.counter("store.load.npz_fallback")
    return decode_payload(data, chunk_bytes, n_intervals)


def publish_profile(
    store: ArtifactStore,
    fingerprint: str,
    curves: dict[int, list[MissCurve]],
    provenance: dict | None = None,
) -> Path:
    """Publish curves to the store as a mappable (uncompressed) npz."""
    payload = encode_payload(curves)

    def _write(tmp: Path) -> None:
        # np.savez appends ".npz" to bare paths; an open handle keeps the
        # staging name exact so the atomic rename sees the real file.
        with open(tmp, "wb") as f:
            np.savez(f, **payload)

    return store.publish(
        "profiles", fingerprint, _write, provenance=provenance
    )


def verify_profile_payload(path: str | Path) -> str | None:
    """Structural check of a stored profile; None if sound, else why not."""
    try:
        data = np.load(path)
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        return f"unreadable payload: {exc}"
    with data:
        if "format_version" not in data:
            return "missing format_version"
        version = int(data["format_version"])
        if version != FORMAT_VERSION:
            return f"format version {version} != {FORMAT_VERSION}"
        if "vc_ids" not in data:
            return "missing vc_ids"
        n_vcs = len(data["vc_ids"])
        for i in range(n_vcs):
            for prefix in ("a", "i"):
                if f"{prefix}_{i}" not in data:
                    return f"missing {prefix}_{i}"
            n_intervals = len(data[f"a_{i}"])
            if len(data[f"i_{i}"]) != n_intervals:
                return f"a_{i}/i_{i} interval counts disagree"
            for t in range(n_intervals):
                name = f"m_{i}_{t}"
                if name not in data:
                    return f"missing {name}"
                misses = data[name]
                if misses.ndim != 1 or len(misses) == 0:
                    return f"{name} is not a non-empty 1-D curve"
    return None
