"""Jigsaw: partitioned shared-baseline D-NUCA (Beckmann & Sanchez).

Per reconfiguration interval (Sec 2.4):

1. Build each VC's *latency curve* — data-stall CPI vs. size, combining
   the monitored miss curve with the reach curve (average network
   distance of the closest banks covering each size) and the memory miss
   penalty.  With bypassing enabled (Sec 3.2), the size-0 point of a
   single-threaded VC's curve excludes the cache access latency, so the
   partitioner chooses bypassing exactly when it wins.
2. Partition LLC capacity across VCs by convex-hull marginal gain on the
   latency curves (this is why unused far-away banks stay unused — dt in
   Fig 4).
3. Place VCs into banks with the greedy + trading placement.

Whirlpool *is* this scheme given per-pool VCs (it only adds VTB entries
and monitors); see :mod:`repro.core.whirlpool`.
"""

from __future__ import annotations

import numpy as np

from repro.curves.latency import latency_curve
from repro.curves.miss_curve import MissCurve
from repro.nuca.config import SystemConfig
from repro.schemes.base import Scheme, VCAllocation, VCSpec
from repro.schemes.placement import greedy_placement, trading_placement
from repro.curves.partition import partition_cost_curves

__all__ = ["JigsawScheme"]


class JigsawScheme(Scheme):
    """Latency-aware VC partitioning + trading placement.

    Args:
        config: system configuration.
        vcs: the VC layout (one process VC = plain Jigsaw; per-pool VCs =
            Whirlpool).
        bypass: enable VC bypassing (both Jigsaw and Whirlpool are
            evaluated with it; the -NoBypass ablation disables it).
        latency_aware: partition on latency curves (Sec 2.4).  False
            falls back to miss-curve partitioning, the traditional
            UCP-style objective — the Sec-2.4 ablation.
        trading: refine the greedy placement with capacity trading.
            False keeps greedy-only placement — the placement ablation.
    """

    hull_accounting = True  # VCs partition internally (Talus)

    def __init__(
        self,
        config: SystemConfig,
        vcs: list[VCSpec],
        bypass: bool = True,
        latency_aware: bool = True,
        trading: bool = True,
    ) -> None:
        super().__init__(config, vcs)
        self.bypass = bypass
        self.latency_aware = latency_aware
        self.trading = trading
        self.name = "Jigsaw" if bypass else "Jigsaw-NoBypass"
        # Entering bypass mode invalidates the VC in the LLC (Sec 3.2),
        # so the runtime only flips a VC to bypassing after the monitors
        # prefer it for two consecutive epochs.
        self._bypass_streak: dict[int, int] = {vc: 0 for vc in self.vcs}
        # Reach vectors are pure functions of (core, size grid); cache
        # them so interval stepping evaluates each geometry walk once.
        self._reach_cache: dict[tuple[int, int, int], np.ndarray] = {}

    def _reach_vector(self, owner_core: int, curve) -> np.ndarray:
        key = (owner_core, curve.chunk_bytes, curve.n_chunks)
        hops = self._reach_cache.get(key)
        if hops is None:
            hops = self.config.geometry.reach_curve(
                owner_core, curve.sizes_bytes()
            )
            self._reach_cache[key] = hops
        return hops

    #: Consecutive epochs a VC must prefer bypassing before it switches.
    BYPASS_HYSTERESIS = 2

    def decide(self, decide_curves: dict[int, MissCurve]) -> dict[int, VCAllocation]:
        cfg = self.config
        geo = cfg.geometry
        vc_ids = [vc for vc in self.vcs if vc in decide_curves]
        if not vc_ids:
            return {}
        # 1. Latency (data-stall CPI) curves, on the capacity chunk grid.
        cost = []
        for vc in vc_ids:
            spec = self.vcs[vc]
            curve = decide_curves[vc]
            if self.hull_accounting:
                # Keep the decision consistent with the accounting: the
                # VC achieves hull performance (Talus), so size it on the
                # hull, not the raw curve.
                curve = curve.hull_curve()
            if self.latency_aware:
                model = cfg.latency_for_core(spec.owner_core)
                stalls = latency_curve(
                    curve,
                    None,
                    model,
                    bypassable=self.bypass and spec.bypassable,
                    hops=self._reach_vector(spec.owner_core, curve),
                )
            else:
                # Miss-curve (UCP-style) partitioning: no network term,
                # so far-away banks look free.
                stalls = curve.misses / max(curve.instructions, 1e-12)
            cost.append(np.asarray(stalls))
        # 2. Partition capacity by marginal latency gain.
        total_chunks = cfg.llc_bytes // decide_curves[vc_ids[0]].chunk_bytes
        sizes_chunks, __ = partition_cost_curves(cost, total_chunks)
        chunk = decide_curves[vc_ids[0]].chunk_bytes
        sizes = {vc: s * chunk for vc, s in zip(vc_ids, sizes_chunks)}
        # 3. Place VCs in banks (greedy by intensity + trading).
        demands = {
            vc: (
                self.vcs[vc].owner_core,
                float(sizes[vc]),
                float(decide_curves[vc].accesses),
            )
            for vc in vc_ids
            if sizes[vc] > 0
        }
        if self.trading:
            placements = trading_placement(geo, demands)
        else:
            placements = greedy_placement(geo, demands)
        out: dict[int, VCAllocation] = {}
        for vc in vc_ids:
            spec = self.vcs[vc]
            size = float(sizes[vc])
            if size <= 0:
                wants_bypass = self.bypass and spec.bypassable
                if wants_bypass:
                    self._bypass_streak[vc] += 1
                bypassed = (
                    wants_bypass
                    and self._bypass_streak[vc] >= self.BYPASS_HYSTERESIS
                )
                out[vc] = VCAllocation(
                    size_bytes=0.0,
                    # A non-bypassed empty VC still checks its closest bank.
                    avg_hops=0.0 if bypassed else geo.reach_avg_hops(
                        spec.owner_core, 0
                    ),
                    bypass=bypassed,
                )
            else:
                self._bypass_streak[vc] = 0
                placement = placements[vc]
                out[vc] = VCAllocation(
                    size_bytes=size,
                    avg_hops=placement.avg_hops(geo.distances(spec.owner_core)),
                    bypass=False,
                    placement=placement,
                )
        return out
