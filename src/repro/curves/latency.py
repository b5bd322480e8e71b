"""End-to-end memory latency curves (paper Sec 2.4).

Jigsaw partitions capacity using *latency* curves, not miss curves: the
total latency of a VC is VC access latency (access rate × network + bank
latency) plus memory latency (miss rate × miss penalty).  This makes the
partitioner leave far-away banks unused when their miss-rate benefit does
not pay for their network latency (e.g. dt in Fig 4), and — with the
Whirlpool bypass extension — allocate zero capacity to streaming pools.

Curves here are expressed as *data-stall cycles per instruction* (CPI),
matching Fig 8b / Fig 9b / Fig 11b-c.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.curves.miss_curve import MissCurve

__all__ = ["LatencyModel", "latency_curve"]

#: Type of the "reach" function: avg one-way hops from the owning core to
#: the banks used by a VC of the given size in bytes.
HopsFn = Callable[[float], float]


@dataclass(frozen=True)
class LatencyModel:
    """Latency parameters of the simulated memory system (Table 3).

    Attributes:
        bank_latency: LLC bank access latency, cycles.
        hop_latency: one-way per-hop NoC latency (router + link), cycles.
        mem_latency: DRAM zero-load latency beyond the LLC, cycles.
        mem_hops: average one-way hops from a core to a memory controller.
    """

    bank_latency: float = 9.0
    hop_latency: float = 5.0
    mem_latency: float = 120.0
    mem_hops: float = 3.0

    def llc_access_latency(self, avg_hops: float) -> float:
        """Round-trip latency of one LLC access placed ``avg_hops`` away."""
        return self.bank_latency + 2.0 * self.hop_latency * avg_hops

    @property
    def miss_penalty(self) -> float:
        """Additional latency of going to main memory."""
        return self.mem_latency + 2.0 * self.hop_latency * self.mem_hops


def latency_curve(
    curve: MissCurve,
    avg_hops: HopsFn | None,
    model: LatencyModel,
    bypassable: bool = False,
    hops: np.ndarray | None = None,
) -> np.ndarray:
    """Data-stall CPI vs. VC size, on the miss curve's grid.

    Args:
        curve: the VC's miss curve for the interval.
        avg_hops: reach function — average one-way hops to the closest
            banks covering a given size (from :mod:`repro.nuca.geometry`).
            Unused, and may be None, when ``hops`` is given.
        model: latency parameters.
        bypassable: if True, the size-0 point models *bypassing*: accesses
            skip the LLC entirely, paying only the memory penalty (this is
            the paper's one-line change that makes the partitioner choose
            bypassing exactly when it wins, Sec 3.2/3.3).
        hops: precomputed ``avg_hops`` values on the curve's size grid,
            e.g. from :meth:`~repro.nuca.geometry.MeshGeometry.reach_curve`.
            The reach curve is pure, so callers stepping many intervals
            on one grid (e.g. Jigsaw) can evaluate it once and reuse the
            vector.

    Returns:
        float array, ``stalls[i]`` = data-stall cycles per instruction at
        size ``i * curve.chunk_bytes``.
    """
    instr = max(curve.instructions, 1e-12)
    if hops is None:
        sizes = curve.sizes_bytes()
        hops = np.array([avg_hops(s) for s in sizes])
    access_lat = model.bank_latency + 2.0 * model.hop_latency * hops
    stalls = (curve.accesses * access_lat + curve.misses * model.miss_penalty) / instr
    if bypassable:
        # All accesses go straight to memory: no bank/NoC detour.
        stalls = stalls.copy()
        stalls[0] = curve.accesses * model.miss_penalty / instr
    return stalls
