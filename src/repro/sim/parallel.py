"""16-core parallel evaluation (Fig 13).

Evaluates a :class:`~repro.parallel.task.ParallelWorkload` under the four
configurations the paper compares:

- ``snuca`` — conventional work stealing, S-NUCA cache.
- ``jigsaw`` — conventional work stealing, Jigsaw.  Work stealing makes
  most data multi-core, so it collapses into one process VC and performs
  like S-NUCA (the paper's observation).
- ``jigsaw+paws`` — PaWS scheduling improves private-cache locality and
  keeps more data single-core, but the shared data still lands in the
  process VC.
- ``whirlpool+paws`` — each partition is a pool with its own VC placed
  near its home core; even data accessed by thieves stays close to the
  cores that use it most.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.curves.combine import shared_cache_misses
from repro.curves.latency import latency_curve
from repro.curves.miss_curve import MissCurve
from repro.curves.partition import partition_cost_curves
from repro.curves.reuse import StackDistanceProfiler
from repro.nuca.config import SystemConfig
from repro.nuca.energy import EnergyBreakdown
from repro.parallel.scheduler import Schedule, schedule_tasks
from repro.parallel.task import ParallelWorkload
from repro.schemes.placement import trading_placement

__all__ = ["ParallelResult", "evaluate_parallel", "PARALLEL_SCHEMES"]

PARALLEL_SCHEMES = ("snuca", "jigsaw", "jigsaw+paws", "whirlpool+paws")

#: Fraction of home-core accesses the private caches absorb under PaWS
#: (better reference locality in L1/L2; paper Sec 3.4).
L2_LOCAL_FILTER = 0.2

#: A region is thread-private to a core if it gets this share of accesses.
PRIVATE_THRESHOLD = 0.9


@dataclass
class ParallelResult:
    """Outcome of one parallel configuration."""

    scheme: str
    cycles: float
    energy: EnergyBreakdown
    schedule: Schedule
    vc_sizes: dict[int, float] = field(default_factory=dict)
    llc_accesses: float = 0.0
    misses: float = 0.0


def _profile_regions(
    workload: ParallelWorkload,
    schedule: Schedule,
    config: SystemConfig,
    local_filter: float,
) -> tuple[dict[int, MissCurve], np.ndarray, np.ndarray]:
    """Per-region curves + per-(region, core) access counts.

    Returns (curves, counts[region, core], core_accesses).
    """
    n_cores = config.n_cores
    region_ids = sorted(workload.region_names)
    index_of = {r: i for i, r in enumerate(region_ids)}
    counts = np.zeros((len(region_ids), n_cores))
    streams: dict[int, list[np.ndarray]] = {r: [] for r in region_ids}
    for tid, task in enumerate(workload.tasks):
        core = schedule.assignment[tid]
        for region, addrs in task.streams.items():
            n = len(addrs)
            if n == 0:
                continue
            # PaWS locality: home-core accesses partially absorbed by L2.
            if local_filter > 0 and core == workload.partition_of_region.get(
                region, -2
            ) % n_cores:
                keep = int(round(n * (1 - local_filter)))
                addrs = addrs[:keep]
                n = keep
            counts[index_of[region], core] += n
            streams[region].append(addrs)
    profiler = StackDistanceProfiler(
        chunk_bytes=config.chunk_bytes,
        n_chunks=config.model_chunks,
        sample_shift=2,
    )
    curves: dict[int, MissCurve] = {}
    total_accesses = counts.sum()
    instructions = total_accesses * 1000.0 / workload.apki / n_cores
    for region in region_ids:
        if not streams[region]:
            continue
        lines = np.concatenate(streams[region]) // 64
        regs = np.zeros(len(lines), dtype=np.int32)
        curves[region] = profiler.profile(
            lines, regs, instructions=instructions
        )[0][0]
    core_accesses = counts.sum(axis=0)
    return curves, counts, core_accesses


def evaluate_parallel(
    workload: ParallelWorkload,
    config: SystemConfig,
    scheme: str,
    seed: int = 0,
) -> ParallelResult:
    """Run one configuration of Fig 13."""
    if scheme not in PARALLEL_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; known: {PARALLEL_SCHEMES}")
    geo = config.geometry
    policy = "paws" if scheme.endswith("paws") else "ws"
    schedule = schedule_tasks(
        workload, config.n_cores, policy=policy, geometry=geo, seed=seed
    )
    local_filter = L2_LOCAL_FILTER if policy == "paws" else 0.0
    curves, counts, core_accesses = _profile_regions(
        workload, schedule, config, local_filter
    )
    region_ids = sorted(curves)
    index_of = {r: i for i, r in enumerate(sorted(workload.region_names))}

    # ------------------------------------------------------------------
    # VC layout.
    # ------------------------------------------------------------------
    # vc -> (owner core, member regions)
    if scheme == "whirlpool+paws":
        vcs = {}
        for r in region_ids:
            owner = workload.partition_of_region.get(r, -1)
            owner = owner % config.n_cores if owner >= 0 else 0
            vcs[r] = (owner, [r])
    else:
        vcs = {}
        process_members: list[int] = []
        for r in region_ids:
            row = counts[index_of[r]]
            total = row.sum()
            if total > 0 and row.max() / total >= PRIVATE_THRESHOLD:
                vcs[r] = (int(row.argmax()), [r])
            else:
                process_members.append(r)
        if process_members:
            weights = {
                c: float(counts[:, c].sum()) for c in range(config.n_cores)
            }
            vcs[-1] = (geo.centroid_core(weights), process_members)

    # Per-VC curves and accesses.
    vc_curve: dict[int, MissCurve] = {}
    vc_accesses: dict[int, float] = {}
    for vc, (owner, members) in vcs.items():
        cs = [curves[m] for m in members]
        merged = cs[0]
        for c in cs[1:]:
            merged = merged.merged_over_time(c)  # same window: approximate
        vc_curve[vc] = merged
        vc_accesses[vc] = float(
            sum(counts[index_of[m]].sum() for m in members)
        )

    # ------------------------------------------------------------------
    # Capacity + placement.
    # ------------------------------------------------------------------
    lat = config.latency
    if scheme == "snuca":
        sizes = {vc: float(config.llc_bytes) for vc in vcs}
        placements = {vc: None for vc in vcs}
        per_vc_misses = dict(
            zip(
                sorted(vcs),
                shared_cache_misses(
                    [vc_curve[vc] for vc in sorted(vcs)], config.llc_bytes
                ),
            )
        )
    else:
        vc_list = sorted(vcs)
        cost = []
        for vc in vc_list:
            owner, members = vcs[vc]
            sizes_bytes = vc_curve[vc].sizes_bytes()
            if vc == -1:
                # Shared process VC: its latency-minimizing home is the
                # mesh center, reached from every accessing core.
                reach = geo.central_reach_curve(sizes_bytes)
            else:
                reach = geo.reach_curve(owner, sizes_bytes)
            cost.append(
                latency_curve(
                    vc_curve[vc],
                    None,
                    config.latency_for_core(owner),
                    bypassable=False,
                    hops=reach,
                )
            )
        chunks, __ = partition_cost_curves(
            cost, config.llc_bytes // config.chunk_bytes
        )
        sizes = {
            vc: float(c * config.chunk_bytes) for vc, c in zip(vc_list, chunks)
        }
        # Private/pool VCs: greedy + trading near their owners.  The
        # shared process VC is placed in the central banks (capacity
        # overlap between the two passes is ignored — an acceptable
        # analytical approximation).
        demands = {
            vc: (vcs[vc][0], max(sizes[vc], 1.0), vc_accesses[vc])
            for vc in vc_list
            if vc != -1
        }
        placements = trading_placement(geo, demands)
        if -1 in sizes:
            placements[-1] = geo.central_placement(max(sizes[-1], 1.0))
        per_vc_misses = {
            vc: min(
                vc_curve[vc].hull_curve().misses_at(sizes[vc]),
                vc_curve[vc].accesses,
            )
            for vc in vc_list
        }

    # ------------------------------------------------------------------
    # Per-core stalls and energy.
    # ------------------------------------------------------------------
    energy = EnergyBreakdown()
    core_stalls = np.zeros(config.n_cores)
    total_misses = 0.0
    for vc, (owner, members) in vcs.items():
        placement = placements.get(vc)
        misses = per_vc_misses.get(vc, 0.0)
        acc_total = max(vc_accesses[vc], 1e-9)
        mem_hops = geo.mem_hops(owner)
        penalty = lat.mem_latency + 2 * lat.hop_latency * mem_hops
        for core in range(config.n_cores):
            acc = float(
                sum(counts[index_of[m], core] for m in members)
            )
            if acc <= 0:
                continue
            if scheme == "snuca" or placement is None:
                hops = geo.snuca_avg_hops(core)
            else:
                hops = placement.avg_hops(geo.distances(core))
            access_lat = lat.bank_latency + 2 * lat.hop_latency * hops
            vc_miss_share = misses * acc / acc_total
            core_stalls[core] += acc * access_lat + vc_miss_share * penalty
            energy = (
                energy
                + config.energy.llc_access(hops, acc)
                + config.energy.memory_access(mem_hops, vc_miss_share)
            )
        total_misses += misses

    instr_per_core = core_accesses * 1000.0 / workload.apki
    core_cycles = instr_per_core * config.base_cpi + core_stalls
    return ParallelResult(
        scheme=scheme,
        cycles=float(core_cycles.max()),
        energy=energy,
        schedule=schedule,
        vc_sizes=sizes,
        llc_accesses=float(counts.sum()),
        misses=total_misses,
    )
