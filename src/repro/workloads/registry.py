"""Workload registry: every benchmark of the paper's evaluation, by name.

The suite matches Appendix A: the 15 memory-intensive SPEC CPU2006 apps
plus 16 PBBS apps (all but nbody), 31 in total (Fig 16/21).  The 12 apps
ported by hand in Table 2 carry their manual pool classification.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable

from repro import obs
from repro.workloads import patterns
from repro.workloads.pbbs import (
    build_bfs,
    build_delaunay,
    build_dict,
    build_hull,
    build_isort,
    build_matching,
    build_mis,
    build_mst,
    build_neighbors,
    build_ray,
    build_refine,
    build_remdups,
    build_sa,
    build_setcover,
    build_sort,
    build_st,
)
from repro.workloads.spec.apps import SPEC_BUILDERS
from repro.workloads.trace import Workload

__all__ = [
    "ALL_APPS",
    "MANUAL_APPS",
    "PBBS_APPS",
    "SPEC_APPS",
    "build_workload",
    "ingested_apps",
    "register_trace",
    "trace_dir",
]

#: PBBS builders (16 apps; Fig 16's right half).
_PBBS_BUILDERS: dict[str, Callable[..., Workload]] = {
    "BFS": build_bfs,
    "MIS": build_mis,
    "MST": build_mst,
    "SA": build_sa,
    "ST": build_st,
    "delaunay": build_delaunay,
    "dict": build_dict,
    "hull": build_hull,
    "isort": build_isort,
    "matching": build_matching,
    "neighbors": build_neighbors,
    "ray": build_ray,
    "refine": build_refine,
    "remDups": build_remdups,
    "setCover": build_setcover,
    "sort": build_sort,
}

_BUILDERS: dict[str, Callable[..., Workload]] = {
    **SPEC_BUILDERS,
    **_PBBS_BUILDERS,
}

#: All 31 single-threaded benchmarks, in Fig 16's order.
SPEC_APPS = list(SPEC_BUILDERS.keys())
PBBS_APPS = list(_PBBS_BUILDERS.keys())
ALL_APPS = SPEC_APPS + PBBS_APPS

#: The 12 manually-ported applications of Table 2.
MANUAL_APPS = [
    "BFS",
    "delaunay",
    "matching",
    "refine",
    "MIS",
    "ST",
    "MST",
    "hull",
    "bzip2",
    "lbm",
    "mcf",
    "cactus",
]


#: Environment variable naming the directory of registered ``.rtrace``
#: archives (``python -m repro ingest register`` writes here).
TRACE_DIR_ENV = "REPRO_TRACE_DIR"

#: Process-local name -> archive bindings (:func:`register_trace`).
_REGISTERED_TRACES: dict[str, Path] = {}


def trace_dir() -> Path | None:
    """Directory scanned for ``<name>.rtrace`` archives, or None."""
    root = os.environ.get(TRACE_DIR_ENV)
    return Path(root) if root else None


def register_trace(name: str, path: str | Path) -> None:
    """Bind an ingested ``.rtrace`` archive to a workload name.

    The binding is process-local; to make a trace visible to campaign
    workers and future sessions, place it in ``$REPRO_TRACE_DIR``
    instead (``python -m repro ingest register`` does both).
    """
    if name in _BUILDERS:
        raise ValueError(
            f"cannot register trace {name!r}: the name belongs to a "
            "built-in benchmark"
        )
    path = Path(path)
    if not path.exists():
        raise ValueError(f"trace archive {path} does not exist")
    _REGISTERED_TRACES[name] = path


def _store_trace_names() -> dict[str, Path]:
    """Workload names bound to trace artifacts in the artifact store."""
    from repro.store import ArtifactStore

    store = ArtifactStore()
    out: dict[str, Path] = {}
    for name, binding in store.names().items():
        if binding.get("kind") != "traces":
            continue
        path = store.get("traces", binding["fingerprint"])
        if path is not None:
            out[name] = path
    return out


def ingested_apps() -> list[str]:
    """Names of ingested traces resolvable right now, sorted.

    The union of all three resolution tiers: process-local
    registrations, ``$REPRO_TRACE_DIR`` archives, and the artifact
    store's name index.
    """
    names = set(_REGISTERED_TRACES)
    root = trace_dir()
    if root is not None and root.is_dir():
        # pathlib's glob matches dotfiles; skip hidden entries so e.g.
        # staging temps never surface as phantom workloads.
        names.update(
            p.stem
            for p in root.glob("*.rtrace")
            if not p.name.startswith(".")
        )
    names.update(_store_trace_names())
    return sorted(names)


def _ingested_path(name: str) -> Path | None:
    path = _REGISTERED_TRACES.get(name)
    if path is not None:
        return path
    root = trace_dir()
    if root is not None:
        candidate = root / f"{name}.rtrace"
        if candidate.exists():
            return candidate
    from repro.store import ArtifactStore

    store = ArtifactStore()
    binding = store.resolve_name(name)
    if binding is not None and binding.get("kind") == "traces":
        return store.get("traces", binding["fingerprint"])
    return None


def build_workload(name: str, scale: str = "ref", seed: int = 0) -> Workload:
    """Build a benchmark by name.

    Args:
        name: one of :data:`ALL_APPS`, or an ingested trace name
            (:func:`register_trace` / ``$REPRO_TRACE_DIR``).
        scale: "ref"/"large" (evaluation inputs) or "train"/"small"
            (WhirlTool profiling inputs).  Ingested traces are a single
            fixed capture, so scale is ignored for them.
        seed: RNG seed (kept fixed across scales for the same program).

    Each build is an obs span ``workload.build`` tagged with its
    arguments and the trace's access count.
    """
    with obs.span("workload.build", app=name, scale=scale, seed=seed) as span:
        if name in _BUILDERS:
            try:
                workload = _BUILDERS[name](scale=scale, seed=seed)
            finally:
                # Zipf rank permutations serve the phases of one build;
                # kept, they would add to every later peak.
                patterns.rank_permutation.cache_clear()
        else:
            path = _ingested_path(name)
            if path is None:
                ingested = ingested_apps()
                raise ValueError(
                    f"unknown workload {name!r}; known: {', '.join(ALL_APPS)}"
                    + (f"; ingested: {', '.join(ingested)}" if ingested else "")
                )
            from repro.ingest import load_workload

            workload = load_workload(path, name=name)
        span.note(accesses=len(workload.trace))
    return workload
