"""S-NUCA: addresses hashed evenly across all banks (Sec 2.1, Fig 3).

The whole LLC acts as one shared cache at the average bank distance; no
placement decisions are made.  Replacement is LRU or DRRIP:

- LRU misses come straight from the stack-distance curve.
- DRRIP is modeled as the convex hull of the LRU curve: set-dueling
  bimodal insertion effectively protects the most valuable fraction of
  the access stream, removing the cliffs LRU suffers on thrashing
  patterns (the same argument Talus makes for partitioned LRU).  The
  event-driven simulator in :mod:`repro.replacement` validates this
  approximation in the integration tests.
"""

from __future__ import annotations

import numpy as np

from repro.curves.combine import advance_flow_heads, shared_cache_misses
from repro.curves.miss_curve import MissCurve, prime_hull_caches
from repro.nuca.config import SystemConfig
from repro.nuca.energy import EnergyBreakdown
from repro.schemes.base import (
    IntervalStats,
    Scheme,
    VCAllocation,
    VCSpec,
    _interp_rows,
)

__all__ = ["SNUCAScheme"]


class SNUCAScheme(Scheme):
    """Static NUCA with LRU or DRRIP replacement."""

    def __init__(
        self,
        config: SystemConfig,
        vcs: list[VCSpec],
        replacement: str = "lru",
    ) -> None:
        super().__init__(config, vcs)
        if replacement not in ("lru", "drrip"):
            raise ValueError(f"unknown replacement {replacement!r}")
        self.replacement = replacement
        self.name = f"S-NUCA/{replacement.upper()}"

    def decide(self, decide_curves: dict[int, MissCurve]) -> dict[int, VCAllocation]:
        # No decisions: everything shares the whole cache, spread evenly.
        out = {}
        for vc_id in self.vcs:
            spec = self.vcs[vc_id]
            out[vc_id] = VCAllocation(
                size_bytes=float(self.config.llc_bytes),
                avg_hops=self.config.geometry.snuca_avg_hops(spec.owner_core),
                bypass=False,
            )
        return out

    def account(
        self,
        allocations: dict[int, VCAllocation],
        actual_curves: dict[int, MissCurve],
        instructions: float,
    ) -> IntervalStats:
        """Shared-cache accounting.

        All VCs (and in mixes, all programs) share one LRU cache, so
        misses come from the *combined* curve (Appendix B model), with
        each VC's share of misses proportional to its flow at the shared
        operating point.
        """
        vc_ids = [vc for vc, c in actual_curves.items() if c.accesses > 0]
        if not vc_ids:
            return IntervalStats(instructions=instructions)
        inputs = [actual_curves[vc] for vc in vc_ids]
        if self.replacement == "drrip":
            inputs = [c.hull_curve() for c in inputs]
        per_vc_misses = dict(
            zip(vc_ids, shared_cache_misses(inputs, self.config.llc_bytes))
        )
        stats = IntervalStats(instructions=instructions)
        cfg = self.config
        for vc_id, curve in actual_curves.items():
            spec = self.vcs[vc_id]
            alloc = allocations[vc_id]
            accesses = curve.accesses
            misses = min(per_vc_misses.get(vc_id, 0.0), accesses)
            hits = accesses - misses
            mem_hops = cfg.geometry.mem_hops(spec.owner_core)
            penalty = cfg.latency.mem_latency + 2 * cfg.latency.hop_latency * mem_hops
            access_lat = (
                cfg.latency.bank_latency
                + 2 * cfg.latency.hop_latency * alloc.avg_hops
            )
            stalls = accesses * access_lat + misses * penalty
            stats.hits += hits
            stats.misses += misses
            stats.stall_cycles += stalls
            stats.energy = (
                stats.energy
                + cfg.energy.llc_access(alloc.avg_hops, accesses)
                + cfg.energy.memory_access(mem_hops, misses)
            )
            stats.vc_sizes[vc_id] = alloc.size_bytes
            stats.vc_hops[vc_id] = alloc.avg_hops
            stats.vc_bypass[vc_id] = False
            stats.vc_accesses[vc_id] = accesses
            stats.vc_misses[vc_id] = misses
            stats.vc_stalls[vc_id] = stalls
        return stats

    def account_batch(
        self,
        allocations: list[dict[int, VCAllocation]],
        actual_series: dict[int, list[MissCurve]],
        instructions: float,
    ) -> list[IntervalStats]:
        """Shared-cache accounting, vectorized across intervals.

        The K-way flow iteration of
        :func:`~repro.curves.combine.shared_cache_misses` advances every
        interval's read heads together as ``(vc, interval)`` arrays; VCs
        with no accesses in an interval contribute exactly ``0.0`` flow,
        which leaves the float sums bit-identical to the serial per-
        interval subsets.  An interval with one VC that has accesses (every
        interval of a single-VC job) lands its head in closed form, with
        no flow steps (:func:`~repro.curves.combine.advance_flow_heads`).
        Ragged grids fall back to the serial loop.
        """
        cfg = self.config
        n_intervals = len(allocations)
        stats_list = [
            IntervalStats(instructions=instructions) for __ in range(n_intervals)
        ]
        vc_order = list(actual_series)
        curves_all = [c for vc in vc_order for c in actual_series[vc]]
        if not curves_all or n_intervals == 0:
            return stats_list
        chunk = curves_all[0].chunk_bytes
        n = curves_all[0].n_chunks
        if any(c.chunk_bytes != chunk or c.n_chunks != n for c in curves_all):
            return [
                self.account(
                    allocations[t],
                    {vc: s[t] for vc, s in actual_series.items()},
                    instructions,
                )
                for t in range(n_intervals)
            ]
        acc = np.array(
            [[c.accesses for c in actual_series[vc]] for vc in vc_order],
            dtype=np.float64,
        )
        included = acc > 0.0
        any_included = included.any(axis=0)
        if self.replacement == "drrip":
            prime_hull_caches(curves_all)
            rates = np.stack(
                [
                    [
                        c.convex_hull() / max(c.instructions, 1e-12)
                        for c in actual_series[vc]
                    ]
                    for vc in vc_order
                ]
            )
        else:
            rates = np.stack(
                [
                    [
                        c.misses / max(c.instructions, 1e-12)
                        for c in actual_series[vc]
                    ]
                    for vc in vc_order
                ]
            )
        instr = np.array(
            [[c.instructions for c in actual_series[vc]] for vc in vc_order],
            dtype=np.float64,
        )
        n_vcs = len(vc_order)
        # One (vc × interval)-flat matrix per flow step: every read head
        # of the whole run advances in a single gather, inside the shared
        # K-way kernel.
        rates_flat = rates.reshape(n_vcs * n_intervals, -1)
        heads = advance_flow_heads(
            rates_flat, included, int(cfg.llc_bytes // chunk)
        )
        per_vc = _interp_rows(rates_flat, heads).reshape(n_vcs, n_intervals)
        per_vc = per_vc * instr
        misses_all = np.where(included, np.minimum(per_vc, acc), 0.0)
        e = cfg.energy
        for v, vc_id in enumerate(vc_order):
            spec = self.vcs[vc_id]
            mem_hops = cfg.geometry.mem_hops(spec.owner_core)
            penalty = (
                cfg.latency.mem_latency + 2 * cfg.latency.hop_latency * mem_hops
            )
            hops = np.array(
                [allocations[t][vc_id].avg_hops for t in range(n_intervals)],
                dtype=np.float64,
            )
            access_lat = (
                cfg.latency.bank_latency + 2 * cfg.latency.hop_latency * hops
            )
            misses_v = misses_all[v]
            hits_v = acc[v] - misses_v
            stalls_v = acc[v] * access_lat + misses_v * penalty
            llc_network = 2.0 * hops * e.hop_nj * acc[v]
            llc_bank = e.bank_nj * acc[v]
            mem_network_scale = 2.0 * mem_hops * e.hop_nj
            for t in range(n_intervals):
                if not any_included[t]:
                    continue
                stats = stats_list[t]
                alloc = allocations[t][vc_id]
                stats.hits += hits_v[t]
                stats.misses += misses_v[t]
                stats.stall_cycles += stalls_v[t]
                stats.energy = (
                    stats.energy
                    + EnergyBreakdown(network=llc_network[t], bank=llc_bank[t])
                    + EnergyBreakdown(
                        network=mem_network_scale * misses_v[t],
                        memory=e.mem_nj * misses_v[t],
                    )
                )
                stats.vc_sizes[vc_id] = alloc.size_bytes
                stats.vc_hops[vc_id] = alloc.avg_hops
                stats.vc_bypass[vc_id] = False
                stats.vc_accesses[vc_id] = acc[v][t]
                stats.vc_misses[vc_id] = misses_v[t]
                stats.vc_stalls[vc_id] = stalls_v[t]
        return stats_list
