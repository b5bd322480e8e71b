"""Region attribution: mapping raw trace addresses to Whirlpool regions.

External captures carry bare addresses; the paper's classification
operates on *regions* (one per data structure / allocation callpoint).
An :class:`AttributionTable` closes that gap: an address-range -> region
table built from an allocation log — either the in-process
:class:`~repro.mem.allocator.HeapAllocator`'s live allocations or a
JSONL log captured alongside the trace — with a vectorized lookup and
an "unattributed -> heap pool" fallback for stack, globals, and any
allocation the log missed.

Ranges are validated disjoint up front
(:func:`repro.mem.allocator.allocation_ranges`): overlapping live
allocations mean a corrupt log, not a tie to break.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.mem.allocator import Allocation, HeapAllocator, allocation_ranges

__all__ = ["AttributionTable", "FALLBACK_NAME"]

#: Name of the fallback region unattributed addresses land in.
FALLBACK_NAME = "heap"

#: Largest region id: ids are int32, as callpoint ids (0 to 2^31-1) are.
_MAX_REGION = np.iinfo(np.int32).max


@dataclass
class AttributionTable:
    """Sorted address-range -> region table with a fallback region.

    Attributes:
        starts: int64 range base addresses, sorted ascending.
        ends: int64 one-past-the-end addresses, aligned with ``starts``.
        regions: int32 region id per range.
        region_names: region id -> name (includes the fallback).
        fallback_region: region id for addresses no range covers.
    """

    starts: np.ndarray
    ends: np.ndarray
    regions: np.ndarray
    region_names: dict[int, str] = field(default_factory=dict)
    fallback_region: int = 0

    def __post_init__(self) -> None:
        self.starts = np.ascontiguousarray(self.starts, dtype=np.int64)
        self.ends = np.ascontiguousarray(self.ends, dtype=np.int64)
        regions = np.asarray(self.regions)
        if len(regions) and not 0 <= regions.min() <= regions.max() <= _MAX_REGION:
            raise ValueError(f"region ids must be non-negative and at most {_MAX_REGION}")
        self.regions = np.ascontiguousarray(regions, dtype=np.int32)
        if not (len(self.starts) == len(self.ends) == len(self.regions)):
            raise ValueError("starts, ends and regions must have equal length")
        if len(self.starts):
            if np.any(self.ends <= self.starts):
                raise ValueError("every range must satisfy end > start")
            if np.any(np.diff(self.starts) < 0):
                raise ValueError("ranges must be sorted by start address")
            if np.any(self.ends[:-1] > self.starts[1:]):
                raise ValueError("ranges must be disjoint")
        if not 0 <= self.fallback_region <= _MAX_REGION:
            raise ValueError(f"fallback_region must be non-negative and at most {_MAX_REGION}")
        self.region_names.setdefault(int(self.fallback_region), FALLBACK_NAME)

    @classmethod
    def from_allocations(
        cls,
        allocs: list[Allocation],
        names: dict[int, str] | None = None,
        fallback_region: int | None = None,
    ) -> "AttributionTable":
        """Build from live allocations (region id = callpoint id).

        Args:
            allocs: live allocations (e.g. ``heap.live_allocations``).
            names: optional callpoint id -> name.
            fallback_region: id for unattributed addresses; defaults to
                one above the largest callpoint (0 for an empty table), or
                the smallest free id if that overflows int32, so it can
                never shadow a real region.
        """
        starts, ends, callpoints = allocation_ranges(allocs)
        if fallback_region is None:
            fallback_region = int(callpoints.max()) + 1 if len(callpoints) else 0
            if fallback_region > _MAX_REGION:
                used = np.unique(callpoints)
                fallback_region = int(np.argmax(used != np.arange(len(used))))
        region_names = dict(names or {})
        return cls(
            starts=starts,
            ends=ends,
            regions=callpoints,
            region_names=region_names,
            fallback_region=int(fallback_region),
        )

    @classmethod
    def from_heap(
        cls, heap: HeapAllocator, names: dict[int, str] | None = None
    ) -> "AttributionTable":
        """Build from a heap's live allocations."""
        return cls.from_allocations(heap.live_allocations, names=names)

    @classmethod
    def from_log(cls, path: str | Path) -> "AttributionTable":
        """Load an allocation log (JSONL).

        Each line is ``{"base": int, "size": int, "region": int}`` with
        an optional ``"name"``; a line ``{"fallback_region": int}``
        overrides the fallback id.
        """
        path = Path(path)
        allocs: list[Allocation] = []
        names: dict[int, str] = {}
        fallback: int | None = None
        with open(path) as f:
            for lineno, raw in enumerate(f, 1):
                s = raw.strip()
                if not s:
                    continue
                try:
                    obj = json.loads(s)
                except json.JSONDecodeError as exc:
                    raise ValueError(
                        f"{path}:{lineno}: invalid JSON: {exc}"
                    ) from None
                if "fallback_region" in obj and "base" not in obj:
                    fallback = int(obj["fallback_region"])
                    continue
                try:
                    base = int(obj["base"])
                    size = int(obj["size"])
                    region = int(obj["region"])
                except (KeyError, TypeError, ValueError):
                    raise ValueError(
                        f"{path}:{lineno}: expected base/size/region fields, "
                        f"got {s[:80]!r}"
                    ) from None
                if size <= 0:
                    raise ValueError(
                        f"{path}:{lineno}: size must be positive, got {size}"
                    )
                if not 0 <= region <= _MAX_REGION:
                    raise ValueError(f"{path}:{lineno}: region {region} is outside [0, 2^31-1]")
                allocs.append(
                    Allocation(base=base, size=size, pool=-1, callpoint=region)
                )
                if "name" in obj:
                    names[region] = str(obj["name"])
        return cls.from_allocations(
            allocs, names=names, fallback_region=fallback
        )

    def to_log(self, path: str | Path) -> None:
        """Write the table back out as an allocation log (JSONL)."""
        with open(path, "w") as f:
            f.write(
                json.dumps({"fallback_region": int(self.fallback_region)})
                + "\n"
            )
            for start, end, region in zip(
                self.starts.tolist(), self.ends.tolist(), self.regions.tolist()
            ):
                obj = {"base": start, "size": end - start, "region": region}
                name = self.region_names.get(region)
                if name is not None:
                    obj["name"] = name
                f.write(json.dumps(obj) + "\n")

    def attribute(self, addrs: np.ndarray) -> np.ndarray:
        """Vectorized address -> region id lookup.

        Addresses outside every range map to :attr:`fallback_region`.
        """
        addrs = np.asarray(addrs, dtype=np.int64)
        out = np.full(len(addrs), self.fallback_region, dtype=np.int32)
        if len(self.starts) == 0 or len(addrs) == 0:
            return out
        idx = np.searchsorted(self.starts, addrs, side="right") - 1
        valid = idx >= 0
        hit = np.zeros(len(addrs), dtype=bool)
        hit[valid] = addrs[valid] < self.ends[idx[valid]]
        out[hit] = self.regions[idx[hit]]
        return out

    @property
    def n_ranges(self) -> int:
        """Number of attributed address ranges."""
        return len(self.starts)
