"""Declarative experiment campaigns.

A :class:`Campaign` names the axes of a grid — apps × schemes × configs
× seeds × classifier variants, optionally crossed with one
configuration-parameter sweep — and expands into the corresponding
:class:`~repro.exp.job.Job` list.  Campaigns round-trip through JSON so
they can be submitted from the CLI (``python -m repro campaign``).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from repro.exp.job import Job

__all__ = ["Campaign"]


@dataclass
class Campaign:
    """One experiment grid.

    Every list field is one grid axis; the job list is their cartesian
    product (× ``values`` when ``axis`` is set).

    Attributes:
        name: campaign name (labels the store / exports).
        apps: workload names (``"a+b"`` entries denote mixes).
        schemes: scheme names per app.
        configs: system-configuration names.
        seeds: workload seeds.
        classifiers: classifier variants (see :class:`Job`).
        scale: input scale for every job.
        axis / values: optional configuration sweep crossed into the grid.
        n_intervals / sample_shift: simulation overrides.
    """

    name: str = "campaign"
    apps: list[str] = field(default_factory=list)
    schemes: list[str] = field(default_factory=list)
    configs: list[str] = field(default_factory=lambda: ["4core"])
    seeds: list[int] = field(default_factory=lambda: [0])
    classifiers: list[str] = field(default_factory=lambda: ["auto"])
    scale: str = "ref"
    axis: str | None = None
    values: list[float] | None = None
    n_intervals: int | None = None
    sample_shift: int | None = None

    def jobs(self) -> list[Job]:
        """Expand the grid into jobs (deterministic order)."""
        if self.axis is not None and not self.values:
            raise ValueError(
                f"campaign {self.name!r} sets axis={self.axis!r} but no values"
            )
        points = self.values if self.axis is not None else [None]
        out: list[Job] = []
        for app in self.apps:
            for scheme in self.schemes:
                for config in self.configs:
                    for seed in self.seeds:
                        for classifier in self.classifiers:
                            for value in points or [None]:
                                out.append(
                                    Job(
                                        app=app,
                                        scheme=scheme,
                                        config=config,
                                        scale=self.scale,
                                        seed=seed,
                                        classifier=classifier,
                                        axis=self.axis if value is not None else None,
                                        value=value,
                                        n_intervals=self.n_intervals,
                                        sample_shift=self.sample_shift,
                                        kind="mix" if "+" in app else "single",
                                    )
                                )
        return out

    def to_dict(self) -> dict:
        """JSON-serializable representation."""
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Campaign":
        """Inverse of :meth:`to_dict`; ignores unknown keys."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in known})

    @classmethod
    def from_json_file(cls, path: str | Path) -> "Campaign":
        """Load a campaign spec from a JSON file."""
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def save(self, path: str | Path) -> None:
        """Write the spec as JSON (atomically: temp sibling + replace)."""
        from repro.store.artifacts import atomic_write

        text = json.dumps(self.to_dict(), indent=2) + "\n"
        atomic_write(Path(path), lambda tmp: tmp.write_text(text))
