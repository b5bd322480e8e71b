"""Workload substrate: instrumented synthetic SPEC CPU2006 and PBBS apps.

Substitution note (DESIGN.md): the paper traces real binaries under zsim.
Here, PBBS kernels are genuinely *executed* (BFS levels, greedy MIS,
union-find, quickhull, ...) against an instrumented heap, emitting the
address stream their data structures would produce at the L2-miss level;
SPEC applications are parameterized generators reproducing each app's
documented pool structure and phase behaviour (e.g. lbm's two alternating
grids, Fig 6).

Entry points
------------
- :func:`repro.workloads.registry.build_workload` — name -> Workload.
- :data:`repro.workloads.registry.ALL_APPS` — the 31-app suite of Fig 16.
- :mod:`repro.workloads.mixes` — multiprogram mix construction (Fig 22).
"""

from repro.workloads.graphs import Graph, partition_graph, rmat_graph, uniform_random_graph
from repro.workloads.registry import (
    ALL_APPS,
    MANUAL_APPS,
    PBBS_APPS,
    SPEC_APPS,
    build_workload,
    ingested_apps,
    register_trace,
)
from repro.workloads.trace import Trace, TraceBuilder, Workload

__all__ = [
    "ALL_APPS",
    "Graph",
    "MANUAL_APPS",
    "PBBS_APPS",
    "SPEC_APPS",
    "Trace",
    "TraceBuilder",
    "Workload",
    "build_workload",
    "ingested_apps",
    "partition_graph",
    "register_trace",
    "rmat_graph",
    "uniform_random_graph",
]
