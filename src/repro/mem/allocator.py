"""Heap allocation with memory pools (paper Sec 3.1).

Implements the programmer-facing API::

    pool = allocator.pool_create()
    buf = allocator.pool_malloc(nbytes, pool)

Each pool draws pages from its own arena, so a page never holds data from
two pools (the invariant Whirlpool's page-granular classification relies
on).  Inside an arena, allocation is a size-class bump allocator with
free-list reuse — a simplified Doug-Lea-style design that is faithful
where it matters: allocations from the same pool pack densely, large
allocations are page-aligned, and freed blocks are recycled within their
pool only.

Every allocation records a *callpoint id* — a hash of the allocating call
stack — which is what the WhirlTool profiler clusters (paper Sec 4.1).
"""

from __future__ import annotations

import sys
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.mem.address_space import PAGE_SIZE, POOL_NONE, AddressSpace

__all__ = [
    "Allocation",
    "HeapAllocator",
    "PoolAllocator",
    "allocation_ranges",
    "callpoint_id",
]

#: Allocations of at least this size get their own page run.
_LARGE_THRESHOLD = PAGE_SIZE

#: Size classes (bytes) for small allocations.
_SIZE_CLASSES = [16, 32, 64, 128, 256, 512, 1024, 2048, PAGE_SIZE]

#: Pages grabbed per small-object arena refill.
_ARENA_RUN_PAGES = 16


def callpoint_id(skip: int = 2) -> int:
    """Hash of the last two call sites (paper: last two return PCs).

    A site is ``module:qualname:line offset in its function``, so an id
    names the code wherever the package lives.  ``skip`` counts the
    frames above the sites: this function's and the allocator's own.
    """
    frame = sys._getframe()
    for _ in range(skip):
        frame = frame and frame.f_back
    sites = []
    while frame is not None and len(sites) < 2:
        code = frame.f_code
        site = f"{frame.f_globals.get('__name__')}:{code.co_qualname}"
        sites.append(f"{site}:{frame.f_lineno - code.co_firstlineno}")
        frame = frame.f_back
    return zlib.crc32("|".join(sites).encode()) & 0x7FFFFFFF


@dataclass(frozen=True)
class Allocation:
    """A live heap allocation.

    Attributes:
        base: virtual base address.
        size: requested size in bytes.
        pool: pool id (POOL_NONE if unpooled).
        callpoint: callpoint id of the allocation site.
    """

    base: int
    size: int
    pool: int
    callpoint: int

    def addresses(self, offsets: np.ndarray) -> np.ndarray:
        """Vectorized ``base + offsets`` with bounds checking disabled.

        Workloads use this to turn index streams into address streams.
        """
        return self.base + np.asarray(offsets, dtype=np.int64)

    @property
    def end(self) -> int:
        """One past the last byte."""
        return self.base + self.size


def allocation_ranges(
    allocs,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted, disjoint (base, end, callpoint) arrays for live allocations.

    This is the address-range table region attribution is built from
    (``repro.ingest.attribute``).  Two live allocations overlapping is
    not a tie to break — it means the allocation log is corrupt or two
    logs were merged — so it raises instead of letting the last writer
    silently win the region mapping.

    Args:
        allocs: iterable of :class:`Allocation`.

    Returns:
        ``(starts, ends, callpoints)`` — int64 base/end addresses sorted
        by base, and the int64 callpoint id of each range.
    """
    allocs = sorted(allocs, key=lambda a: a.base)
    starts = np.array([a.base for a in allocs], dtype=np.int64)
    ends = np.array([a.end for a in allocs], dtype=np.int64)
    callpoints = np.array([a.callpoint for a in allocs], dtype=np.int64)
    if len(allocs) > 1:
        overlap = np.nonzero(ends[:-1] > starts[1:])[0]
        if overlap.size:
            i = int(overlap[0])
            a, b = allocs[i], allocs[i + 1]
            raise ValueError(
                f"live allocations overlap: "
                f"[{hex(a.base)}, {hex(a.end)}) (callpoint {a.callpoint}) and "
                f"[{hex(b.base)}, {hex(b.end)}) (callpoint {b.callpoint}); "
                "refusing to build a last-writer-wins attribution table"
            )
    return starts, ends, callpoints


@dataclass
class _Arena:
    """Per-pool allocation arena."""

    bump_addr: int = 0
    bump_end: int = 0
    free_lists: dict[int, list[int]] = field(default_factory=dict)


class HeapAllocator:
    """Size-class heap allocator with per-pool arenas."""

    def __init__(self, space: AddressSpace | None = None) -> None:
        self.space = space if space is not None else AddressSpace()
        self._arenas: dict[int, _Arena] = {}
        self._next_pool = 0
        self._live: dict[int, Allocation] = {}
        self.allocated_bytes = 0

    # ------------------------------------------------------------------
    # Pool API (paper Sec 3.1)
    # ------------------------------------------------------------------
    def pool_create(self) -> int:
        """Create a new memory pool; returns its id."""
        pool = self._next_pool
        self._next_pool += 1
        self._arenas[pool] = _Arena()
        return pool

    def pool_malloc(
        self, size: int, pool: int, callpoint: int | None = None
    ) -> Allocation:
        """Allocate ``size`` bytes from ``pool``."""
        self._check_pool(pool)
        return self._malloc(size, pool, callpoint)

    def pool_calloc(
        self, count: int, elem_size: int, pool: int, callpoint: int | None = None
    ) -> Allocation:
        """Allocate ``count * elem_size`` zeroed bytes from ``pool``."""
        # Calls _malloc itself, so a calloc site's callpoint is its
        # caller and the caller's caller, as for pool_malloc.
        self._check_pool(pool)
        return self._malloc(count * elem_size, pool, callpoint)

    def pool_realloc(
        self, alloc: Allocation, new_size: int, callpoint: int | None = None
    ) -> Allocation:
        """Resize an allocation within its pool (always moves)."""
        self.free(alloc)
        return self._malloc(new_size, alloc.pool, callpoint or alloc.callpoint)

    # ------------------------------------------------------------------
    # Standard API
    # ------------------------------------------------------------------
    def malloc(self, size: int, callpoint: int | None = None) -> Allocation:
        """Allocate untagged (no-pool) memory."""
        return self._malloc(size, POOL_NONE, callpoint)

    def free(self, alloc: Allocation) -> None:
        """Free an allocation, returning it to its pool's free lists."""
        if alloc.base not in self._live:
            raise ValueError(f"double free or foreign allocation at {hex(alloc.base)}")
        del self._live[alloc.base]
        self.allocated_bytes -= alloc.size
        arena = self._arena_for(alloc.pool)
        cls = self._size_class(alloc.size)
        if cls is not None:
            arena.free_lists.setdefault(cls, []).append(alloc.base)
        # Large runs are not recycled (monotonic address space); fine for
        # profiling purposes and keeps pages single-pool by construction.

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _size_class(size: int) -> int | None:
        for cls in _SIZE_CLASSES:
            if size <= cls:
                return cls
        return None

    def _check_pool(self, pool: int) -> None:
        if pool != POOL_NONE and pool not in self._arenas:
            raise ValueError(f"unknown pool {pool}")

    def _arena_for(self, pool: int) -> _Arena:
        if pool == POOL_NONE:
            return self._arenas.setdefault(POOL_NONE, _Arena())
        return self._arenas[pool]

    def _malloc(self, size: int, pool: int, callpoint: int | None) -> Allocation:
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        if callpoint is None:
            callpoint = callpoint_id(skip=3)
        arena = self._arena_for(pool)
        cls = self._size_class(size)
        if cls is None:
            n_pages = -(-size // PAGE_SIZE)
            base = self.space.map_pages(n_pages, pool)
        else:
            free = arena.free_lists.get(cls)
            if free:
                base = free.pop()
            else:
                if arena.bump_addr + cls > arena.bump_end:
                    run = self.space.map_pages(_ARENA_RUN_PAGES, pool)
                    arena.bump_addr = run
                    arena.bump_end = run + _ARENA_RUN_PAGES * PAGE_SIZE
                base = arena.bump_addr
                arena.bump_addr += cls
        alloc = Allocation(base=base, size=size, pool=pool, callpoint=callpoint)
        self._live[base] = alloc
        self.allocated_bytes += size
        return alloc

    @property
    def live_allocations(self) -> list[Allocation]:
        """Currently live allocations."""
        return list(self._live.values())


class PoolAllocator:
    """A thin facade binding a :class:`HeapAllocator` to named pools.

    Mirrors how applications were manually ported (Table 2): create one
    pool per major data structure, then allocate each structure from its
    pool.  ``pool('vertices')`` lazily creates the pool on first use.
    """

    def __init__(self, heap: HeapAllocator | None = None) -> None:
        self.heap = heap if heap is not None else HeapAllocator()
        self._by_name: dict[str, int] = {}

    def pool(self, name: str) -> int:
        """Get (or create) the pool with this name."""
        if name not in self._by_name:
            self._by_name[name] = self.heap.pool_create()
        return self._by_name[name]

    def malloc(
        self, size: int, pool_name: str | None = None, callpoint: int | None = None
    ) -> Allocation:
        """Allocate from a named pool, or untagged when no name is given.

        ``callpoint`` overrides the stack-derived callpoint id — used by
        generators whose allocation loop would otherwise collapse every
        structure onto one site.
        """
        if callpoint is None:
            callpoint = callpoint_id(skip=2)
        if pool_name is None:
            return self.heap.malloc(size, callpoint=callpoint)
        return self.heap.pool_malloc(size, self.pool(pool_name), callpoint=callpoint)

    @property
    def pool_names(self) -> dict[str, int]:
        """Mapping from pool name to pool id."""
        return dict(self._by_name)
