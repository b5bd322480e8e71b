"""Per-VC, per-interval miss-curve profiling with an on-disk cache.

Profiling (stack distances over each VC's access stream) is by far the
most expensive step of the evaluation pipeline, and every scheme that
shares a VC layout reuses the same curves, so results are cached on disk
keyed by a fingerprint of (trace, VC mapping, grid parameters).

Cached profiles live in the content-addressed artifact store
(:mod:`repro.store`), the only place profiles are written.  The store
memory-maps payloads so N campaign workers share one page-cache copy of
each curve set; a hermetic run points ``$REPRO_STORE_DIR`` at a
directory of its own.  When the store misses, the committed
``.profile_cache/`` fixture pile is read, never written.

Within a process, each payload is decoded once: a bounded memo keyed by
the payload file hands every later request the same read-only curves,
so their hull caches carry over from one job to the next.
"""

from __future__ import annotations

import hashlib
import os
from collections import OrderedDict
from pathlib import Path

import numpy as np

from repro import obs
from repro.curves.miss_curve import MissCurve
from repro.curves.reuse import StackDistanceProfiler
from repro.store.profiles import FORMAT_VERSION, load_profile
from repro.workloads.trace import Trace

__all__ = ["profile_vcs", "clear_cache", "relabel_regions"]


#: Accesses :func:`relabel_regions` looks up at a time, so its index
#: temporaries stay block-sized.
_RELABEL_BLOCK = 1 << 16

#: Fibonacci-hash multiplier (2^32 / golden ratio) for relabel slots.
_SLOT_MULT = 0x9E3779B1


def _slot_table(
    mapping: dict[int, int], dtype: np.dtype
) -> tuple[int, int, np.ndarray, np.ndarray]:
    """An open-addressed table of the mapping's ids, sized by their count.

    An id's home slot is the top ``bits`` of its low 32 bits times
    :data:`_SLOT_MULT`; a taken slot moves the id to the next free one.
    The table grows (up to 2^16 slots) until every id sits at home, so a
    lookup is usually one probe.  Empty slots map to VC 0.

    Returns ``(bits, probes, ids, vcs)``: the slot-index width, the
    largest displacement from home, and the slot contents.
    """
    info = np.iinfo(dtype)
    ids = [rid for rid in mapping if info.min <= rid <= info.max]
    bits = max(1, (2 * len(ids)).bit_length())
    while True:
        size = 1 << bits
        slots: dict[int, int] = {}
        probes = 0
        for rid in ids:
            home = ((rid & 0xFFFFFFFF) * _SLOT_MULT & 0xFFFFFFFF) >> (32 - bits)
            d = 0
            while (home + d) % size in slots:
                d += 1
            slots[(home + d) % size] = rid
            probes = max(probes, d)
        if probes == 0 or bits >= 16:
            break
        bits += 1
    table = np.zeros(size, dtype=dtype)
    vcs = np.zeros(size, dtype=np.int32)
    for slot, rid in slots.items():
        table[slot] = rid
        vcs[slot] = mapping[rid]
    return bits, probes, table, vcs


def relabel_regions(
    regions: np.ndarray, mapping: dict[int, int]
) -> np.ndarray:
    """Relabel region ids with VC ids via a table over the mapped ids.

    The table (:func:`_slot_table`) is sized by the number of ids in
    the mapping, not by their values, and accesses are looked up one
    block at a time, so memory stays bounded for hashed callpoint ids
    near 2^31 and no full-trace index temporary appears.

    Ids missing from the mapping fall into VC 0 — the convention both
    the in-memory path (:func:`profile_vcs`) and the streaming path
    (:meth:`repro.ingest.stream.StreamingStackProfiler.profile_source`)
    share.  So a mapping onto VC 0 alone (the single-VC layout) needs
    no lookup.
    """
    regions = np.asarray(regions)
    out = np.zeros(len(regions), dtype=np.int32)
    if not any(mapping.values()) or not len(regions):
        return out
    bits, probes, table, vcs = _slot_table(mapping, regions.dtype)
    shift = np.uint32(32 - bits)
    for lo in range(0, len(regions), _RELABEL_BLOCK):
        block = regions[lo : lo + _RELABEL_BLOCK]
        # The unsafe cast keeps an id's low 32 bits, as the table does.
        home = np.multiply(
            block, np.uint32(_SLOT_MULT), dtype=np.uint32, casting="unsafe"
        )
        home >>= shift
        slot = home.astype(np.intp)
        dst = out[lo : lo + _RELABEL_BLOCK]
        for d in range(probes + 1):
            if d:
                slot += 1
                slot &= len(table) - 1
            # At most one probe finds the id; the others add VC 0.
            dst += vcs.take(slot) * (table.take(slot) == block)
    return out

#: Cache-key version (defined in :mod:`repro.store.profiles`).  Version
#: 1 fingerprints hashed only a stride-257 sample of the trace, so short
#: traces with equal length and instruction count could collide and
#: serve the wrong curves; version 2 hashes the full arrays.  Every key
#: hashes the version, so an entry keyed by another one is never read.
_FORMAT_VERSION = FORMAT_VERSION

#: Bytes of curve sets the per-process memo may keep.  The largest set a
#: grid revisits job after job, one 16-core Whirlpool mix, is about 8 MB
#: of curves plus hulls; the bound holds two, since whatever it holds
#: stays resident between jobs.
_MEMO_BYTES = 16 << 20

Curves = dict[int, list[MissCurve]]


def _fresh(curves: Curves) -> Curves:
    """New containers over the same curves: callers may mutate them."""
    return {vc: list(series) for vc, series in curves.items()}


class _CurveMemo:
    """Least-recently-used curve sets, keyed by the payload they came from.

    A key holds the payload's path, device, inode, size and mtime, so a
    replaced or rewritten file misses its old entry, and switching store
    roots (``$REPRO_STORE_DIR``) cannot alias entries.  The curves are
    read-only and shared; their hull caches fill in as schemes use them.
    An entry costs its payload (the mapped file, or the decoded arrays
    when larger) plus one hull per curve, so the bound also caps the
    mappings, each holding a file descriptor, that the memo keeps alive.
    """

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.nbytes = 0
        self._entries: OrderedDict[tuple, tuple[Curves, int]] = OrderedDict()

    def get(self, key: tuple) -> Curves | None:
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        return _fresh(entry[0])

    def put(self, key: tuple, curves: Curves, file_bytes: int) -> None:
        decoded = sum(c.misses.nbytes for s in curves.values() for c in s)
        cost = max(file_bytes, decoded) + decoded
        if cost > self.limit:
            return
        self._entries[key] = (_fresh(curves), cost)
        self.nbytes += cost
        while self.nbytes > self.limit:
            __, (__, dropped) = self._entries.popitem(last=False)
            self.nbytes -= dropped

    def clear(self) -> None:
        self._entries.clear()
        self.nbytes = 0


_MEMO = _CurveMemo(_MEMO_BYTES)


def _fixture_dir() -> Path | None:
    """The committed fixture pile, when running from a source checkout.

    Installed packages have no checkout around them, so this returns
    ``None`` and every profile comes from the store.
    """
    legacy = Path(__file__).resolve().parents[3] / ".profile_cache"
    return legacy if legacy.is_dir() else None


def _profile_store():
    from repro.store import ArtifactStore

    return ArtifactStore()


def clear_cache() -> int:
    """Delete the store's cached profiles; returns the number removed.

    The committed fixtures are never deleted.
    """
    _MEMO.clear()
    n = 0
    store = _profile_store()
    for kind, fingerprint, path in list(store.artifacts("profiles")):
        path.unlink(missing_ok=True)
        store.meta_path(kind, fingerprint).unlink(missing_ok=True)
        n += 1
    return n


def _fingerprint(
    trace: Trace,
    mapping: dict[int, int],
    chunk_bytes: int,
    n_chunks: int,
    n_intervals: int,
    sample_shift: int,
) -> str:
    # blake2b over the *full* arrays: sampling the trace (as version 1 did
    # with lines[::257]) lets distinct traces of equal length collide and
    # silently serve each other's curves.  Hashing ~16 MB/ms-scale is
    # negligible next to profiling itself — but not next to a cache *hit*,
    # so the hash state after the arrays is kept on the trace object and
    # copied for each grid and mapping (trace arrays are immutable by
    # convention; a campaign evaluating one workload under many VC
    # layouts hashes its arrays once).
    arrays = getattr(trace, "_fingerprint_arrays", None)
    if arrays is None:
        arrays = hashlib.blake2b(digest_size=16)
        arrays.update(np.ascontiguousarray(trace.lines, dtype=np.int64))
        arrays.update(np.ascontiguousarray(trace.regions, dtype=np.int32))
        trace._fingerprint_arrays = arrays
    h = arrays.copy()
    h.update(
        f"v{_FORMAT_VERSION}|{len(trace)}|{trace.instructions}|"
        f"{trace.line_bytes}|{chunk_bytes}|{n_chunks}|"
        f"{n_intervals}|{sample_shift}".encode()
    )
    for rid in sorted(mapping):
        h.update(f"{rid}:{mapping[rid]};".encode())
    return h.hexdigest()


def profile_vcs(
    trace: Trace,
    mapping: dict[int, int],
    chunk_bytes: int,
    n_chunks: int,
    n_intervals: int = 1,
    sample_shift: int = 0,
    use_cache: bool = True,
) -> Curves:
    """Profile a trace into per-VC, per-interval miss curves.

    Args:
        trace: the workload trace.
        mapping: region id -> VC id (the classifier's output).  Regions
            missing from the mapping fall into VC 0.
        chunk_bytes / n_chunks: miss-curve size grid.
        n_intervals: reconfiguration intervals.
        sample_shift: address sampling (see
            :class:`~repro.curves.reuse.StackDistanceProfiler`).
        use_cache: read/write the on-disk cache and the in-process memo.

    With ``use_cache``, the curves may be shared with other calls for
    the same payload and are then read-only; the returned dict and lists
    are always the caller's own.
    """
    key = None
    if use_cache:
        key = _fingerprint(
            trace, mapping, chunk_bytes, n_chunks, n_intervals, sample_shift
        )
        cached = _load(key, chunk_bytes, n_intervals)
        if cached is not None:
            obs.counter("profile_cache.hit")
            return cached
        obs.counter("profile_cache.miss")

    # Relabel the trace's regions with VC ids.
    vc_ids = relabel_regions(trace.regions, mapping)
    profiler = StackDistanceProfiler(
        chunk_bytes=chunk_bytes,
        n_chunks=n_chunks,
        line_bytes=trace.line_bytes,
        sample_shift=sample_shift,
    )
    with obs.span(
        "profile.curves", n_intervals=n_intervals, n_chunks=n_chunks
    ):
        curves = profiler.profile(
            trace.lines, vc_ids, trace.instructions, n_intervals=n_intervals
        )
    if key is not None:
        path = _store(
            key,
            curves,
            inputs={
                "n_records": len(trace),
                "instructions": trace.instructions,
                "line_bytes": trace.line_bytes,
                "mapping": {str(r): v for r, v in sorted(mapping.items())},
                "chunk_bytes": chunk_bytes,
                "n_chunks": n_chunks,
                "n_intervals": n_intervals,
                "sample_shift": sample_shift,
            },
        )
        # Serve the published payload: its read-only curves are the ones
        # every later call for this fingerprint shares, hulls included.
        stored = _load_payload(path, chunk_bytes, n_intervals)
        if stored is not None:
            return stored
    return curves


def _load(key: str, chunk_bytes: int, n_intervals: int) -> Curves | None:
    # A stale or partially written file (missing arrays, wrong layout
    # version, truncated index) falls back to re-profiling instead of
    # crashing the run; load_profile absorbs all of that into None.
    path = _profile_store().path("profiles", key)
    curves = _load_payload(path, chunk_bytes, n_intervals)
    if curves is None:
        fixture = _fixture_dir()
        if fixture is not None:
            curves = _load_payload(fixture / f"{key}.npz", chunk_bytes, n_intervals)
    return curves


def _load_payload(
    path: Path, chunk_bytes: int, n_intervals: int
) -> Curves | None:
    """The curves in one payload file: memoized, or decoded and memoized."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    memo_key = (
        str(path),
        st.st_dev,
        st.st_ino,
        st.st_size,
        st.st_mtime_ns,
        chunk_bytes,
        n_intervals,
    )
    curves = _MEMO.get(memo_key)
    if curves is not None:
        obs.counter("profile_cache.memo")
        return curves
    curves = load_profile(path, chunk_bytes, n_intervals)
    if curves is not None:
        _MEMO.put(memo_key, curves, st.st_size)
    return curves


def _store(key: str, curves: Curves, inputs: dict | None = None) -> Path:
    """Publish ``curves`` to the store; returns the payload path."""
    from repro.store import provenance_record, publish_profile

    return publish_profile(
        _profile_store(),
        key,
        curves,
        provenance=provenance_record(
            "profiles",
            key,
            builder="repro.sim.profiling.profile_vcs",
            inputs=inputs,
        ),
    )
