"""Work-stealing schedulers: conventional and PaWS (paper Sec 3.4).

Conventional work stealing enqueues tasks to the spawning thread and
steals from a random victim — great load balance, poor locality: "over
time, each core ends up accessing data used by many tasks".

PaWS (partitioned work stealing) enqueues each task at the core that
owns its input partition and steals preferentially from *mesh-neighbor*
cores, so stolen work stays close to its data.

The simulation is a discrete greedy list scheduler per barrier phase:
cores repeatedly take the next task from their own queue, stealing when
empty; task cost = its access count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nuca.geometry import MeshGeometry
from repro.parallel.task import ParallelWorkload

__all__ = ["Schedule", "schedule_tasks"]


@dataclass
class Schedule:
    """Result of scheduling a parallel workload.

    Attributes:
        assignment: core id of each task (index-aligned with
            ``workload.tasks``).
        core_work: total access-cost executed per core.
        steals: number of stolen tasks.
    """

    assignment: list[int]
    core_work: np.ndarray
    steals: int = 0

    @property
    def makespan(self) -> float:
        """Load-balance proxy: max per-core work."""
        return float(self.core_work.max())

    @property
    def imbalance(self) -> float:
        """Max/mean per-core work (1.0 = perfectly balanced)."""
        mean = self.core_work.mean()
        return float(self.core_work.max() / mean) if mean > 0 else 1.0


def _steal_order(geometry: MeshGeometry, thief: int) -> list[int]:
    """Victim order for PaWS: nearest cores first."""
    er, ec = geometry.core_entries[thief]
    others = [c for c in range(geometry.n_cores) if c != thief]
    return sorted(
        others,
        key=lambda c: abs(geometry.core_entries[c][0] - er)
        + abs(geometry.core_entries[c][1] - ec),
    )


def schedule_tasks(
    workload: ParallelWorkload,
    n_cores: int,
    policy: str = "ws",
    geometry: MeshGeometry | None = None,
    seed: int = 0,
) -> Schedule:
    """Schedule all tasks onto ``n_cores`` cores.

    Args:
        workload: the parallel program.
        n_cores: cores available.
        policy: ``"ws"`` (conventional work stealing) or ``"paws"``.
        geometry: required for PaWS (neighbor-order stealing).
        seed: RNG seed for victim selection / initial spread.
    """
    if policy not in ("ws", "paws"):
        raise ValueError(f"unknown policy {policy!r}")
    if policy == "paws" and geometry is None:
        raise ValueError("paws requires the mesh geometry")
    rng = np.random.default_rng(seed)
    assignment = [-1] * len(workload.tasks)
    core_work = np.zeros(n_cores)
    steals = 0

    for phase in range(workload.n_phases):
        task_ids = [
            i for i, t in enumerate(workload.tasks) if t.phase == phase
        ]
        queues: list[list[int]] = [[] for __ in range(n_cores)]
        if policy == "ws":
            # Tasks spawn on whatever core runs the spawning loop; a
            # parallel-for splits into contiguous blocks across cores,
            # uncorrelated with data homes once phases interleave.
            spread = rng.permutation(len(task_ids))
            for j, tid in enumerate(task_ids):
                queues[spread[j] % n_cores].append(tid)
        else:
            for tid in task_ids:
                queues[workload.tasks[tid].home % n_cores].append(tid)
        # Greedy execution with stealing.
        phase_time = np.zeros(n_cores)
        while True:
            # Pick the least-loaded core that can still obtain work.
            order = np.argsort(phase_time, kind="stable")
            progressed = False
            for core in order:
                tid = _obtain(int(core), queues, policy, geometry, rng)
                if tid is None:
                    continue
                assignment[tid] = int(core)
                cost = workload.tasks[tid].cost
                phase_time[core] += cost
                core_work[core] += cost
                if _obtain.last_was_steal:
                    steals += 1
                progressed = True
                break
            if not progressed:
                break
    return Schedule(
        assignment=assignment, core_work=core_work, steals=steals
    )


def _obtain(core, queues, policy, geometry, rng):
    """Take a task for ``core``: own queue first, then steal."""
    _obtain.last_was_steal = False
    if queues[core]:
        return queues[core].pop(0)
    # Steal.
    if policy == "paws":
        victims = _steal_order(geometry, core)
    else:
        victims = rng.permutation(len(queues)).tolist()
    for v in victims:
        if v != core and queues[v]:
            _obtain.last_was_steal = True
            return queues[v].pop()  # steal from the tail
    return None


_obtain.last_was_steal = False
