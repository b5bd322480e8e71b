"""A small DSL for phase-structured synthetic workloads.

A workload is a set of named :class:`RegionSpec` (one per data structure
/ allocation callpoint) plus a list of :class:`PhaseSpec` giving each
phase's access mix.  The generator allocates each region from its own
pool, then emits the interleaved access stream phase by phase.

Patterns:

- ``uniform`` — random lines over the whole region (reuse distance ≈
  working set; caches well iff the region fits).
- ``zipf`` — skewed reuse (smooth, convex miss curve; hot head caches in
  little space).
- ``stream`` — sequential, cursor persists across phases (no reuse until
  the region wraps; the classic bypass candidate).
- ``chase`` — pointer chase over a fixed permutation (whole-region reuse
  distance, like mcf's node walks).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.mem.allocator import HeapAllocator, PoolAllocator
from repro.workloads import patterns
from repro.workloads.trace import TraceBuilder, Workload

__all__ = ["RegionSpec", "PhaseSpec", "build_synthetic"]

_PATTERNS = ("uniform", "zipf", "stream", "chase")


@dataclass(frozen=True)
class RegionSpec:
    """One data structure of a synthetic workload.

    Attributes:
        name: region/pool name.
        size_bytes: working-set size.
        pattern: one of ``uniform``, ``zipf``, ``stream``, ``chase``.
        zipf_alpha: skew for the ``zipf`` pattern.
    """

    name: str
    size_bytes: int
    pattern: str = "uniform"
    zipf_alpha: float = 1.2

    def __post_init__(self) -> None:
        if self.pattern not in _PATTERNS:
            raise ValueError(f"unknown pattern {self.pattern!r}")
        if self.size_bytes < 64:
            raise ValueError(f"region {self.name}: size too small")
        # Caught here, or the build fails mid-phase with numpy's
        # "a <= 1 or a is NaN", which names no region.
        if self.pattern == "zipf" and not self.zipf_alpha > 1.0:
            raise ValueError(
                f"region {self.name}: zipf_alpha must be > 1, got {self.zipf_alpha}"
            )


@dataclass(frozen=True)
class PhaseSpec:
    """One program phase.

    Attributes:
        weights: region name -> relative share of this phase's accesses
            (regions absent from the dict are idle in the phase).
        accesses: number of LLC accesses in the phase.
    """

    weights: dict[str, float]
    accesses: int


@dataclass
class _RegionState:
    alloc: object
    region_id: int
    stream_cursor: int = 0
    chase_perm: np.ndarray | None = None


def build_synthetic(
    name: str,
    regions: list[RegionSpec],
    phases: list[PhaseSpec],
    apki: float,
    seed: int = 0,
    manual_pool_names: list[str] | None = None,
    table2_loc: int | None = None,
) -> Workload:
    """Generate a :class:`Workload` from region and phase specs.

    Args:
        name: benchmark name.
        regions: the data structures.
        phases: phase list, executed in order.
        apki: LLC accesses per kilo-instruction (fixes the instruction
            count, and thus the cost of every miss in CPI terms).
        seed: RNG seed.
        manual_pool_names: if given, the subset of region names that were
            manually classified (Table 2 apps); each named region becomes
            its own manual pool.
        table2_loc: lines-of-code-changed metadata (Table 2).
    """
    if not regions:
        raise ValueError("at least one region required")
    if not phases:
        raise ValueError("at least one phase required")
    rng = np.random.default_rng(seed)
    heap = HeapAllocator()
    alloc = PoolAllocator(heap)
    tb = TraceBuilder()
    states: dict[str, _RegionState] = {}
    specs = {r.name: r for r in regions}
    for spec in regions:
        # Each region models a distinct allocation site in the real
        # program, so give it a name-derived callpoint id rather than the
        # (shared) line of this loop.
        site = zlib.crc32(f"{name}:{spec.name}".encode()) & 0x7FFFFFFF
        a = alloc.malloc(spec.size_bytes, spec.name, callpoint=site)
        rid = tb.region(spec.name, a)
        states[spec.name] = _RegionState(alloc=a, region_id=rid)

    for phase in phases:
        total_w = sum(phase.weights.values())
        if total_w <= 0:
            raise ValueError("phase weights must sum to a positive value")
        streams: dict[int, np.ndarray] = {}
        for rname, w in phase.weights.items():
            if rname not in specs:
                raise ValueError(f"phase references unknown region {rname!r}")
            count = int(round(phase.accesses * w / total_w))
            if count <= 0:
                continue
            spec = specs[rname]
            state = states[rname]
            streams[state.region_id] = _emit(spec, state, count, rng)
        tb.access_interleaved(streams)

    trace = tb.finalize(apki=apki)
    manual = None
    if manual_pool_names is not None:
        manual = {
            states[rname].region_id: rname for rname in manual_pool_names
        }
    return Workload(
        name=name,
        trace=trace,
        heap=heap,
        manual_pools=manual,
        table2_loc=table2_loc,
    )


def _emit(
    spec: RegionSpec, state: _RegionState, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Produce ``count`` byte addresses for one region in one phase."""
    a = state.alloc
    n_lines = max(1, spec.size_bytes // 64)
    if spec.pattern == "uniform":
        return patterns.uniform_random(rng, a, count)
    if spec.pattern == "zipf":
        return patterns.zipf_random(rng, a, count, alpha=spec.zipf_alpha)
    if spec.pattern == "chase":
        if state.chase_perm is None:
            state.chase_perm = rng.permutation(n_lines)
        idx = state.chase_perm[
            (state.stream_cursor + np.arange(count, dtype=np.int64)) % n_lines
        ]
        state.stream_cursor = (state.stream_cursor + count) % n_lines
        return a.base + idx * 64
    # stream: sequential with persistent cursor.
    idx = (state.stream_cursor + np.arange(count, dtype=np.int64)) % n_lines
    state.stream_cursor = (state.stream_cursor + count) % n_lines
    return a.base + idx * 64
