"""Multiprogrammed-mix simulation (Fig 22 methodology).

Each program runs on its own core; all programs' VCs compete for the one
LLC inside a single scheme instance (Jigsaw/Whirlpool partition across
programs; S-NUCA shares via the combined-curve model; IdealSPD gives each
core its private region).  Weighted speedup follows the standard
definition, Σ IPC_shared / IPC_alone, with IPC_alone measured running the
program alone under Jigsaw.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.nuca.config import SystemConfig
from repro.nuca.energy import EnergyBreakdown
from repro.schemes.base import SchemeResult, VCSpec
from repro.schemes.classifiers import Classifier, SingleVCClassifier
from repro.sim.driver import SchemeFactory, default_sample_shift
from repro.sim.profiling import profile_vcs
from repro.workloads.trace import Workload

__all__ = ["MixResult", "simulate_mix", "weighted_speedup"]


@dataclass
class MixResult:
    """Outcome of one mix under one scheme."""

    scheme_name: str
    per_app: list[SchemeResult] = field(default_factory=list)

    @property
    def energy(self) -> EnergyBreakdown:
        """Total data-movement energy across the mix."""
        total = EnergyBreakdown()
        for r in self.per_app:
            total = total + r.energy
        return total

    def ipcs(self) -> list[float]:
        """Per-app IPCs."""
        return [r.ipc for r in self.per_app]


def simulate_mix(
    workloads: list[Workload],
    config: SystemConfig,
    scheme_factory: SchemeFactory,
    classifiers: list[Classifier] | None = None,
    n_intervals: int = 16,
    use_cache: bool = True,
    sample_shift: int | None = None,
) -> MixResult:
    """Run a mix of programs, one per core, under one scheme.

    The scheme makes one joint decision per interval and accounts the
    whole run at once (:meth:`~repro.schemes.base.Scheme.step_batch`).

    Args:
        workloads: one program per core (len <= config cores).
        config: chip configuration.
        scheme_factory: ``(config, vcs) -> Scheme``.
        classifiers: per-app VC classifiers (default: single VC each).
        n_intervals: reconfiguration intervals over the mix window.
        sample_shift: address-sampling override (default: per-workload
            :func:`default_sample_shift`).
    """
    if len(workloads) > config.n_cores:
        raise ValueError(
            f"{len(workloads)} programs > {config.n_cores} cores"
        )
    if classifiers is None:
        classifiers = [SingleVCClassifier()] * len(workloads)
    # Build a joint VC space: per-app vc ids offset into a global space.
    all_specs: list[VCSpec] = []
    app_curves = []
    app_vc_ids: list[list[int]] = []
    next_vc = 0
    for core, (workload, classifier) in enumerate(zip(workloads, classifiers)):
        mapping, specs = classifier.classify(workload, owner_core=core)
        remap = {s.vc_id: next_vc + i for i, s in enumerate(specs)}
        next_vc += len(specs)
        global_specs = [
            VCSpec(
                vc_id=remap[s.vc_id],
                name=f"{workload.name}.{s.name}",
                owner_core=core,
                bypassable=s.bypassable,
            )
            for s in specs
        ]
        all_specs.extend(global_specs)
        global_mapping = {rid: remap[vc] for rid, vc in mapping.items()}
        curves = profile_vcs(
            workload.trace,
            global_mapping,
            chunk_bytes=config.chunk_bytes,
            n_chunks=config.model_chunks,
            n_intervals=n_intervals,
            sample_shift=(
                default_sample_shift(workload)
                if sample_shift is None
                else sample_shift
            ),
            use_cache=use_cache,
        )
        app_curves.append(curves)
        app_vc_ids.append([s.vc_id for s in global_specs])

    scheme = scheme_factory(config, all_specs)
    per_app = [
        SchemeResult(name=scheme.name, base_cpi=config.base_cpi)
        for __ in workloads
    ]
    for stats in _step_batched(scheme, app_curves, n_intervals):
        # Attribute each joint interval's stalls and energy per app.
        for app_idx, workload in enumerate(workloads):
            vc_ids = set(app_vc_ids[app_idx])
            instr = workload.trace.instructions / n_intervals
            app_stats = _extract_app(stats, vc_ids, instr)
            per_app[app_idx].add(app_stats)
    return MixResult(scheme_name=scheme.name, per_app=per_app)


def _step_batched(scheme, app_curves, n_intervals):
    """Batched joint stepping: decide per interval, account all at once.

    All programs share one scheme instance, so each interval is still a
    single joint decision — one batched partition call across every
    program's VCs for Jigsaw/Whirlpool — while the accounting runs as
    stacked array operations over the whole run.
    """
    decide_series: dict[int, list] = {}
    actual_series: dict[int, list] = {}
    for curves in app_curves:
        for vc, series in curves.items():
            decide_series[vc] = [
                series[max(t - 1, 0)] for t in range(n_intervals)
            ]
            actual_series[vc] = list(series)
    return scheme.step_batch(
        decide_series, actual_series, 0.0, n_intervals=n_intervals
    )


def _extract_app(stats, vc_ids, instructions):
    """Slice one app's share out of a joint IntervalStats."""
    from repro.schemes.base import IntervalStats

    out = IntervalStats(instructions=instructions)
    total_acc = sum(stats.vc_accesses.values()) or 1.0
    for vc in vc_ids:
        if vc not in stats.vc_accesses:
            continue
        acc = stats.vc_accesses[vc]
        misses = stats.vc_misses.get(vc, 0.0)
        byp = acc if stats.vc_bypass.get(vc) else 0.0
        out.bypasses += byp
        if not stats.vc_bypass.get(vc):
            out.misses += misses
            out.hits += acc - misses
        out.stall_cycles += stats.vc_stalls.get(vc, 0.0)
        out.vc_sizes[vc] = stats.vc_sizes.get(vc, 0.0)
        out.vc_hops[vc] = stats.vc_hops.get(vc, 0.0)
        out.vc_bypass[vc] = stats.vc_bypass.get(vc, False)
        out.vc_accesses[vc] = acc
        out.vc_misses[vc] = misses
        out.vc_stalls[vc] = stats.vc_stalls.get(vc, 0.0)
        # Energy attribution: proportional to the app's access share.
        out.energy = out.energy + stats.energy.scaled(acc / total_acc)
    return out


def weighted_speedup(
    mix_result: MixResult, alone_ipcs: list[float]
) -> float:
    """Σ IPC_shared / IPC_alone over the mix's programs."""
    if len(mix_result.per_app) != len(alone_ipcs):
        raise ValueError("alone_ipcs length mismatch")
    return sum(
        r.ipc / max(alone, 1e-12)
        for r, alone in zip(mix_result.per_app, alone_ipcs)
    )
