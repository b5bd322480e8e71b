"""Single-program simulation driver.

Profiles the workload once (per VC layout), then steps the scheme
interval by interval.  Like real hardware, the scheme decides interval
``t``'s configuration from the monitors of interval ``t - 1`` — so
adaptation lags phase changes by one reconfiguration, exactly the
dynamics Figs 6/11 rely on.
"""

from __future__ import annotations

from typing import Callable

from repro.nuca.config import SystemConfig
from repro.schemes.base import Scheme, SchemeResult, VCSpec
from repro.schemes.classifiers import Classifier, SingleVCClassifier
from repro.sim.profiling import profile_vcs
from repro.workloads.trace import Workload

__all__ = ["simulate", "default_intervals", "default_sample_shift"]

SchemeFactory = Callable[[SystemConfig, list[VCSpec]], Scheme]


def default_intervals(workload: Workload, config: SystemConfig) -> int:
    """Reconfiguration count: one per epoch, clamped to [8, 48]."""
    n = int(workload.trace.instructions / config.reconfig_instructions)
    return max(8, min(48, n))


def default_sample_shift(workload: Workload) -> int:
    """Address-sampling aggressiveness by trace length."""
    n = len(workload.trace)
    if n < 200_000:
        return 0
    if n < 1_000_000:
        return 2
    if n < 4_000_000:
        return 3
    return 4


def simulate(
    workload: Workload,
    config: SystemConfig,
    scheme_factory: SchemeFactory,
    classifier: Classifier | None = None,
    owner_core: int = 0,
    n_intervals: int | None = None,
    sample_shift: int | None = None,
    use_cache: bool = True,
) -> SchemeResult:
    """Run one workload under one scheme.

    The scheme steps through :meth:`~repro.schemes.base.Scheme.step_batch`:
    it decides each interval in order and accounts them all at once.

    Args:
        workload: the program.
        config: chip configuration.
        scheme_factory: ``(config, vcs) -> Scheme``.
        classifier: VC layout; defaults to a single process VC (Jigsaw's
            view).  Pass :class:`~repro.schemes.ManualPoolClassifier` or
            a WhirlTool classifier for Whirlpool.
        owner_core: core the program runs on.
        n_intervals / sample_shift: override the defaults.
        use_cache: reuse cached profiles.

    Returns:
        The accumulated :class:`~repro.schemes.base.SchemeResult`.
    """
    if classifier is None:
        classifier = SingleVCClassifier()
    if n_intervals is None:
        n_intervals = default_intervals(workload, config)
    if sample_shift is None:
        sample_shift = default_sample_shift(workload)
    mapping, vcs = classifier.classify(workload, owner_core=owner_core)
    curves = profile_vcs(
        workload.trace,
        mapping,
        chunk_bytes=config.chunk_bytes,
        n_chunks=config.model_chunks,
        n_intervals=n_intervals,
        sample_shift=sample_shift,
        use_cache=use_cache,
    )
    scheme = scheme_factory(config, vcs)
    result = SchemeResult(name=scheme.name, base_cpi=config.base_cpi)
    instr_per = workload.trace.instructions / n_intervals
    decide_series = {
        vc: [series[max(t - 1, 0)] for t in range(n_intervals)]
        for vc, series in curves.items()
    }
    for stats in scheme.step_batch(
        decide_series, curves, instr_per, n_intervals=n_intervals
    ):
        result.add(stats)
    return result
