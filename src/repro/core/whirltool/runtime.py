"""WhirlTool runtime (paper Sec 4.3) and its one training path.

Replaces the system allocator: each allocation's callpoint is looked up
in the trained callpoint -> pool map and routed to the matching pool's
VC.  Allocations from unprofiled callpoints fall into the thread-private
(process) pool.  As a :class:`~repro.schemes.Classifier`, this plugs
straight into the simulation driver in place of the manual Table-2
classification.

Training (profile, then cluster) happens here and nowhere else:
:func:`train_on` trains on an already-built run and keeps the merge
tree on that run object, and :func:`train_whirltool` builds the run
first.
"""

from __future__ import annotations

from repro.core.whirltool.analyzer import ClusteringResult, WhirlToolAnalyzer
from repro.core.whirltool.profiler import WhirlToolProfiler
from repro.schemes.base import VCSpec
from repro.schemes.classifiers import Classifier
from repro.workloads.registry import build_workload
from repro.workloads.trace import Workload

__all__ = ["WhirlToolClassifier", "train_on", "train_whirltool"]

#: Attribute of a training run that holds its merge tree, so the tree
#: lives exactly as long as the run.
_CLUSTERING_ATTR = "_whirltool_clustering"


class WhirlToolClassifier(Classifier):
    """Region -> VC classification from a trained clustering.

    Args:
        clustering: analyzer output for the application.
        n_pools: pools to cut the merge tree at (the paper settles on 3).
    """

    name = "whirltool"

    def __init__(self, clustering: ClusteringResult, n_pools: int = 3) -> None:
        if n_pools < 1:
            raise ValueError(f"n_pools must be >= 1, got {n_pools}")
        self.clustering = clustering
        self.n_pools = n_pools
        self._pool_of_callpoint = clustering.assignments(n_pools)

    def classify(
        self, workload: Workload, owner_core: int = 0
    ) -> tuple[dict[int, int], list[VCSpec]]:
        # VC 0 is the process VC (unprofiled callpoints); pools follow.
        mapping: dict[int, int] = {}
        used_pools: set[int] = set()
        for rid in workload.region_names:
            pool = self._pool_of_callpoint.get(rid)
            if pool is None:
                mapping[rid] = 0
            else:
                mapping[rid] = pool + 1
                used_pools.add(pool)
        specs = [VCSpec(vc_id=0, name="process", owner_core=owner_core)]
        for pool in sorted(used_pools):
            members = [
                self.clustering.names.get(cp, str(cp))
                for cp, p in self._pool_of_callpoint.items()
                if p == pool
            ]
            specs.append(
                VCSpec(
                    vc_id=pool + 1,
                    name="|".join(sorted(members)),
                    owner_core=owner_core,
                )
            )
        used_vcs = set(mapping.values())
        specs = [s for s in specs if s.vc_id in used_vcs]
        return mapping, specs


def train_on(run: Workload) -> ClusteringResult:
    """WhirlTool's merge tree for an already-built training run.

    The first call profiles and clusters ``run`` and keeps the tree on
    it; later calls on the same run object return that tree, so every
    cut of the run shares it, and the tree is freed with the run.
    """
    clustering = getattr(run, _CLUSTERING_ATTR, None)
    if clustering is None:
        clustering = WhirlToolAnalyzer().cluster(WhirlToolProfiler().profile(run))
        setattr(run, _CLUSTERING_ATTR, clustering)
    return clustering


def train_whirltool(
    app: str,
    n_pools: int = 3,
    train_scale: str = "train",
    seed: int = 0,
) -> WhirlToolClassifier:
    """Full WhirlTool pipeline: profile a training run, cluster, classify.

    Profiling and analysis happen once, offline (the paper runs them at
    compile time on the train inputs); the returned classifier is then
    applied to any input scale of the same application — callpoint ids
    are stable across inputs.
    """
    run = build_workload(app, scale=train_scale, seed=seed)
    return WhirlToolClassifier(train_on(run), n_pools=n_pools)
