"""Declarative multiprogrammed-mix campaigns (Fig 22 at any scale).

A :class:`MixCampaign` names a (chip size × mix × scheme) grid: for each
core count it draws ``n_mixes`` seeded random SPEC mixes — the same
compositions :func:`repro.workloads.mixes.make_mix` builds, pinned by the
seeded-mix regression tests — and crosses them with the scheme list.
The grid expands into ordinary mix :class:`~repro.exp.job.Job` cells, so
the PR-1 campaign runner gives it parallelism, resumability, and the
append-only result store for free; :func:`weighted_speedup_table` turns
the stored records into the Fig-22 weighted-speedup view.

Fig-22-scale runs (20 mixes × 4/16 cores) and larger are one command::

    python -m repro campaign mixes --cores 4,16 --mixes 20 --workers 8
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from repro.exp.job import Job
from repro.exp.store import ResultStore
from repro.workloads.mixes import mix_names, mix_seeds

__all__ = ["MixCampaign", "weighted_speedup_table"]

#: Core count -> system-configuration name.
_CONFIG_FOR_CORES = {4: "4core", 16: "16core"}


@dataclass
class MixCampaign:
    """One multiprogrammed-mix experiment grid.

    Attributes:
        name: campaign name (labels the store / exports).
        n_cores: chip sizes to run (4 and/or 16; each value is both the
            core count and the mix width, as in Fig 22).
        n_mixes: random mixes per chip size.
        schemes: mix schemes (``Jigsaw``/``Whirlpool`` with optional
            ``-NoBypass``, ``S-NUCA/LRU``, ``S-NUCA/DRRIP``, ``IdealSPD``,
            ``Awasthi``).
        baseline: scheme the weighted-speedup table normalizes to.
        scale: workload input scale.
        base_seed: seed of mix ``k`` is ``base_seed + k`` (the
            :func:`~repro.workloads.mixes.make_mixes` convention).
        n_intervals / sample_shift: simulation overrides.
        classifier: per-app VC classifier spec (``"auto"`` follows the
            paper's rule: pooled VCs for Whirlpool, one process VC
            otherwise).
    """

    name: str = "mixes"
    n_cores: list[int] = field(default_factory=lambda: [4])
    n_mixes: int = 8
    schemes: list[str] = field(
        default_factory=lambda: ["Jigsaw", "Whirlpool", "S-NUCA/LRU"]
    )
    baseline: str = "Jigsaw"
    scale: str = "train"
    base_seed: int = 1000
    n_intervals: int | None = 8
    sample_shift: int | None = None
    classifier: str = "auto"

    def __post_init__(self) -> None:
        unknown = set(self.n_cores) - set(_CONFIG_FOR_CORES)
        if unknown:
            raise ValueError(
                f"unsupported core counts {sorted(unknown)}; "
                f"known: {sorted(_CONFIG_FOR_CORES)}"
            )
        if self.n_mixes <= 0:
            raise ValueError(f"n_mixes must be positive, got {self.n_mixes}")
        if not self.schemes:
            raise ValueError("schemes must not be empty")
        if self.baseline not in self.schemes:
            raise ValueError(
                f"baseline {self.baseline!r} must be one of the schemes"
            )

    def mixes(self, cores: int) -> list[tuple[str, tuple[int, ...]]]:
        """The ``(app-string, per-app seeds)`` compositions for one size."""
        out = []
        for k in range(self.n_mixes):
            seed = self.base_seed + k
            names = mix_names(cores, seed)
            out.append(("+".join(names), tuple(mix_seeds(cores, seed))))
        return out

    def job(
        self, cores: int, app: str, seeds: tuple[int, ...], scheme: str
    ) -> Job:
        """The job for one (chip size, mix, scheme) cell.

        The single construction point for the campaign's jobs — grid
        expansion and store lookups must build identical jobs or their
        fingerprints diverge.
        """
        return Job(
            app=app,
            scheme=scheme,
            config=_CONFIG_FOR_CORES[cores],
            scale=self.scale,
            classifier=self.classifier,
            n_intervals=self.n_intervals,
            sample_shift=self.sample_shift,
            kind="mix",
            mix_seeds=seeds,
        )

    def jobs(self) -> list[Job]:
        """Expand the grid into mix jobs (deterministic order)."""
        return [
            self.job(cores, app, seeds, scheme)
            for cores in self.n_cores
            for app, seeds in self.mixes(cores)
            for scheme in self.schemes
        ]

    def to_dict(self) -> dict:
        """JSON-serializable representation."""
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "MixCampaign":
        """Inverse of :meth:`to_dict`; ignores unknown keys."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in known})

    @classmethod
    def from_json_file(cls, path: str | Path) -> "MixCampaign":
        """Load a mix-campaign spec from a JSON file."""
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def save(self, path: str | Path) -> None:
        """Write the spec as JSON (atomically: temp sibling + replace)."""
        from repro.store.artifacts import atomic_write

        text = json.dumps(self.to_dict(), indent=2) + "\n"
        atomic_write(Path(path), lambda tmp: tmp.write_text(text))


def weighted_speedup_table(
    campaign: MixCampaign, store: ResultStore | str | Path
) -> str:
    """Per-mix weighted speedups vs. the baseline, one table per chip size.

    Weighted speedup of a mix under a scheme is ``Σ IPC / Σ IPC_baseline``
    (the Fig-22 normalization).  Mixes whose jobs are still pending show
    ``nan`` — the table is safe to render mid-campaign.
    """
    from repro.analysis import format_table, gmean

    if not isinstance(store, ResultStore):
        store = ResultStore(store)
    sections = []
    others = [s for s in campaign.schemes if s != campaign.baseline]
    for cores in campaign.n_cores:
        rows = []
        per_scheme: dict[str, list[float]] = {s: [] for s in others}
        for k, (app, seeds) in enumerate(campaign.mixes(cores)):
            def record(scheme: str):
                return store.get(campaign.job(cores, app, seeds, scheme).key())

            base = record(campaign.baseline)
            base_ipc = sum(base["ipcs"]) if base else float("nan")
            row = [k, app]
            for scheme in others:
                rec = record(scheme)
                if rec and base:
                    speedup = sum(rec["ipcs"]) / base_ipc
                    per_scheme[scheme].append(speedup)
                else:
                    speedup = float("nan")
                row.append(round(speedup, 4))
            rows.append(row)
        table = format_table(
            ["mix", "apps"] + [f"{s} vs {campaign.baseline}" for s in others],
            rows,
        )
        gms = "  ".join(
            f"{s}: {gmean(v):.4f}" if v else f"{s}: n/a"
            for s, v in per_scheme.items()
        )
        sections.append(
            f"--- {cores}-core, {campaign.n_mixes} mixes ---\n{table}\n"
            f"gmean weighted speedup vs {campaign.baseline}: {gms}"
        )
    return "\n\n".join(sections)
