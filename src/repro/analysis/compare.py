"""Run a workload under the paper's full scheme comparison set.

The six bars of Figs 10/19/20/21: S-NUCA LRU, S-NUCA DRRIP, IdealSPD,
Awasthi, Jigsaw, Whirlpool.  Whirlpool uses the manual classification
when the app was ported (Table 2) and WhirlTool otherwise — matching how
the paper evaluates "Whirlpool" across the whole suite.

:func:`run_scheme` evaluates one (workload, scheme) cell and is the unit
the ``repro.exp`` campaign engine executes; :func:`run_schemes` loops it
over a scheme list for the classic one-app comparison.
"""

from __future__ import annotations

from typing import Callable

from repro.core.whirlpool import WhirlpoolScheme
from repro.core.whirltool import train_whirltool
from repro.nuca.config import SystemConfig
from repro.schemes import (
    AwasthiScheme,
    IdealSPDScheme,
    JigsawScheme,
    ManualPoolClassifier,
    SNUCAScheme,
)
from repro.schemes.base import SchemeResult
from repro.schemes.classifiers import Classifier, SingleVCClassifier
from repro.sim.driver import simulate
from repro.workloads.trace import Workload

__all__ = ["STANDARD_SCHEMES", "run_scheme", "run_schemes", "resolve_classifier"]

#: Scheme display order of the paper's breakdown figures.
STANDARD_SCHEMES = ["LRU", "DRRIP", "IdealSPD", "Awasthi", "Jigsaw", "Whirlpool"]


#: Scheme factories, ``(config, vcs) -> Scheme``; Jigsaw and Whirlpool
#: bypass (their default).
_FACTORIES: dict[str, Callable] = {
    "LRU": lambda c, v: SNUCAScheme(c, v, "lru"),
    "DRRIP": lambda c, v: SNUCAScheme(c, v, "drrip"),
    "IdealSPD": IdealSPDScheme,
    "Awasthi": AwasthiScheme,
    "Jigsaw": JigsawScheme,
    "Whirlpool": WhirlpoolScheme,
}


def resolve_classifier(spec: str, workload: Workload, seed: int = 0) -> Classifier:
    """Build a VC classifier from a variant name.

    Variants: ``"auto"`` (manual pools when the app was ported,
    WhirlTool at 3 pools otherwise — the paper's Whirlpool evaluation
    rule), ``"single"`` (one process VC, the driver default),
    ``"manual"``, ``"whirltool:<k>"``.  WhirlTool trains on the app's
    train input at ``seed``.
    """
    if spec == "auto":
        spec = "manual" if workload.manual_pools else "whirltool:3"
    if spec == "single":
        return SingleVCClassifier()
    if spec == "manual":
        if not workload.manual_pools:
            raise ValueError(f"{workload.name} has no manual pools")
        return ManualPoolClassifier()
    if spec.startswith("whirltool:"):
        return train_whirltool(
            workload.name, n_pools=int(spec.split(":", 1)[1]), seed=seed
        )
    raise ValueError(f"unknown classifier variant {spec!r}")


def run_scheme(
    workload: Workload,
    config: SystemConfig,
    scheme: str,
    classifier: Classifier | None = None,
    **simulate_kwargs,
) -> SchemeResult:
    """Evaluate one workload under one named scheme.

    Args:
        workload: the program.
        config: chip configuration.
        scheme: one of :data:`STANDARD_SCHEMES`.
        classifier: VC classifier; defaults to the driver's single
            process VC, except Whirlpool which follows the ``"auto"``
            rule (manual pools when ported, WhirlTool at 3 pools trained
            on the train input at seed 0 otherwise).
        simulate_kwargs: forwarded to :func:`repro.sim.simulate`.
    """
    if scheme not in _FACTORIES:
        raise ValueError(
            f"unknown scheme {scheme!r}; known: {', '.join(STANDARD_SCHEMES)}"
        )
    if scheme == "Whirlpool" and classifier is None:
        classifier = resolve_classifier("auto", workload)
    return simulate(
        workload,
        config,
        _FACTORIES[scheme],
        classifier=classifier,
        **simulate_kwargs,
    )


def run_schemes(
    workload: Workload,
    config: SystemConfig,
    schemes: list[str] | None = None,
) -> dict[str, SchemeResult]:
    """Evaluate one workload under the requested schemes.

    Each scheme runs through :func:`run_scheme` with its default
    classifier.

    Args:
        workload: the program (its name must be in the registry when
            WhirlTool training is needed).
        config: chip configuration.
        schemes: subset of :data:`STANDARD_SCHEMES` (default: all).
    """
    if schemes is None:
        schemes = list(STANDARD_SCHEMES)
    return {name: run_scheme(workload, config, name) for name in schemes}
