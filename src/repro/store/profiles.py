"""Profile artifacts: the cached miss-curve payload, store-side.

A payload is a flat npz holding one array per quantity:

- ``layout``: the payload layout tag, :data:`LAYOUT`;
- ``vc_ids``: the VC ids, ascending;
- ``misses[vc, interval, grid]``: every miss curve, on one grid;
- ``accesses[vc, interval]`` and ``instructions[vc, interval]``.

Loaded curves are read-only row views of the one ``misses`` array.  The
store publishes payloads *uncompressed* and aligned
(:func:`~repro.store.mmapzip.write_stored_zip`), so those rows view the
file mapping and N workers share one page-cache copy; the committed,
read-only ``.profile_cache/`` pile is ``savez_compressed`` and is
inflated on load.  A payload without the current layout tag decodes to
``None``: a store entry written in an earlier layout is profiled and
published again, once.  The tag is not part of the fingerprint
(:data:`FORMAT_VERSION` is), so a layout change keeps every key.
"""

from __future__ import annotations

import io
import zipfile
from collections.abc import Mapping
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.curves.miss_curve import MissCurve
    from repro.store.artifacts import ArtifactStore

__all__ = [
    "FORMAT_VERSION",
    "LAYOUT",
    "decode_payload",
    "encode_payload",
    "load_profile",
    "publish_profile",
    "verify_profile_payload",
]

#: Cache-key version — single source of truth for what a fingerprint
#: hashes (``repro.sim.profiling`` re-exports it as ``_FORMAT_VERSION``).
#: Version 1 fingerprints hashed only a stride-257 sample of the trace,
#: so short traces could collide.
FORMAT_VERSION = 2

#: Payload layout tag, stored in the payload's ``layout`` member.  Any
#: other value, or none, reads as a stale payload.
LAYOUT = 3


def encode_payload(
    curves: dict[int, list[MissCurve]],
) -> dict[str, np.ndarray]:
    """Stack per-VC, per-interval curves into the payload's arrays.

    Every VC must have the same number of intervals and every curve the
    same grid: a ragged set raises ``ValueError`` naming the VC.
    """
    vcs = sorted(curves)
    first = curves[vcs[0]] if vcs else []
    n_intervals = len(first)
    n_points = len(first[0].misses) if first else 0
    for vc in vcs:
        if len(curves[vc]) != n_intervals:
            raise ValueError(
                f"VC {vc} has {len(curves[vc])} intervals, "
                f"VC {vcs[0]} has {n_intervals}"
            )
        for t, c in enumerate(curves[vc]):
            if len(c.misses) != n_points:
                raise ValueError(
                    f"VC {vc} interval {t} has a {len(c.misses)}-point "
                    f"curve, VC {vcs[0]} has {n_points}-point curves"
                )
    shape = (len(vcs), n_intervals)
    return {
        "layout": np.array(LAYOUT, dtype=np.int64),
        "vc_ids": np.array(vcs, dtype=np.int64),
        "misses": np.array(
            [[c.misses for c in curves[vc]] for vc in vcs], dtype=np.float64
        ).reshape(shape + (n_points,)),
        "accesses": np.array(
            [[c.accesses for c in curves[vc]] for vc in vcs], dtype=np.float64
        ).reshape(shape),
        "instructions": np.array(
            [[c.instructions for c in curves[vc]] for vc in vcs],
            dtype=np.float64,
        ).reshape(shape),
    }


def _unstack(
    arrays: Mapping[str, np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(vc_ids, misses, accesses, instructions)`` of a sound payload.

    Raises ``ValueError`` saying what is wrong: another layout tag or
    none, a missing array, or arrays whose shapes disagree.
    """
    tag = arrays.get("layout")
    if tag is None:
        raise ValueError("no layout tag")
    if tag.shape != () or tag.dtype.kind not in "iu" or int(tag) != LAYOUT:
        raise ValueError(f"layout {tag!r} is not {LAYOUT}")
    names = ("vc_ids", "misses", "accesses", "instructions")
    missing = [name for name in names if name not in arrays]
    if missing:
        raise ValueError(f"missing {', '.join(missing)}")
    vc_ids, misses, accesses, instructions = (arrays[name] for name in names)
    n_vcs = len(vc_ids)
    if (
        vc_ids.ndim != 1
        or vc_ids.dtype.kind not in "iu"
        or misses.ndim != 3
        or misses.shape[0] != n_vcs
        or (n_vcs and misses.shape[2] == 0)
        or accesses.shape != misses.shape[:2]
        or instructions.shape != misses.shape[:2]
    ):
        raise ValueError(
            "arrays do not stack: "
            + ", ".join(f"{n} {arrays[n].dtype}{arrays[n].shape}" for n in names)
        )
    return vc_ids, misses, accesses, instructions


def decode_payload(
    arrays: Mapping[str, np.ndarray], chunk_bytes: int, n_intervals: int
) -> dict[int, list[MissCurve]] | None:
    """Rebuild curves from a payload's arrays; None on any staleness.

    Each curve is a read-only row view of ``arrays["misses"]``.  A stale
    or partially written payload (another layout, missing arrays, other
    interval counts) returns ``None`` so callers fall back to
    re-profiling rather than crash.
    """
    from repro.curves.miss_curve import MissCurve

    try:
        vc_ids, misses, accesses, instructions = _unstack(arrays)
        if len(vc_ids) and misses.shape[1] != n_intervals:
            return None
        acc = np.asarray(accesses, dtype=np.float64).tolist()
        ins = np.asarray(instructions, dtype=np.float64).tolist()
        return {
            vc: [
                MissCurve(
                    misses=misses[v, t],
                    chunk_bytes=chunk_bytes,
                    accesses=acc[v][t],
                    instructions=ins[v][t],
                )
                for t in range(n_intervals)
            ]
            for v, vc in enumerate(vc_ids.tolist())
        }
    except ValueError:
        return None


def load_profile(
    path: str | Path, chunk_bytes: int, n_intervals: int
) -> dict[int, list[MissCurve]] | None:
    """Load a profile payload, zero-copy when the file permits it.

    Store payloads are uncompressed, so their curves view one shared
    mapping; compressed ones (the fixture pile) are inflated.  A
    missing, damaged or stale payload returns ``None``.
    """
    from repro import obs
    from repro.devtools import faults
    from repro.retry import call_with_retries
    from repro.store.mmapzip import ZIP_READ_ERRORS, is_mapped, npz_arrays

    path = Path(path)
    if not path.exists():
        return None

    def read() -> dict[str, np.ndarray]:
        faults.maybe_inject("store-read", key=str(path))
        return npz_arrays(path)

    try:
        # A transient read failure costs a bounded re-read; a persistent
        # one, like a damaged payload, reads as a miss.
        arrays = call_with_retries(read, key=str(path))
    except ZIP_READ_ERRORS:
        return None
    if all(is_mapped(a) for a in arrays.values()):
        obs.counter("store.load.mmap")
    else:
        obs.counter("store.load.npz_fallback")
    return decode_payload(arrays, chunk_bytes, n_intervals)


def publish_profile(
    store: ArtifactStore,
    fingerprint: str,
    curves: dict[int, list[MissCurve]],
    provenance: dict | None = None,
) -> Path:
    """Publish curves to the store as a mappable (uncompressed) npz."""
    from repro.store.mmapzip import write_stored_zip

    members = []
    for key, array in encode_payload(curves).items():
        buf = io.BytesIO()
        np.lib.format.write_array(buf, array, allow_pickle=False)
        members.append((f"{key}.npy", buf.getvalue()))
    return store.publish(
        "profiles",
        fingerprint,
        lambda tmp: write_stored_zip(tmp, members),
        provenance=provenance,
    )


def verify_profile_payload(path: str | Path) -> str | None:
    """Integrity check of a profile payload; None if sound, else why not.

    Every member must match its CRC-32, and the arrays must form a
    current-layout payload.
    """
    from repro.store.mmapzip import ZIP_READ_ERRORS, npz_arrays

    try:
        with zipfile.ZipFile(path) as zf:
            damaged = zf.testzip()
        if damaged is not None:
            return f"bad CRC-32 for member {damaged!r}"
        arrays = npz_arrays(path)
    except ZIP_READ_ERRORS as exc:
        return f"unreadable payload: {exc}"
    try:
        _unstack(arrays)
    except ValueError as exc:
        return str(exc)
    return None
