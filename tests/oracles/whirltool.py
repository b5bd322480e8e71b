"""WhirlTool's serial clustering (paper Sec 4.2): one pair at a time.

The oracles for ``repro.core.whirltool.analyzer``: ``pool_distance``
sums one pair's per-interval areas with the scalar Listing-1 loop and
the serial optimal split, and ``cluster_reference`` builds the merge
tree from a dict of those distances.  ``WhirlToolAnalyzer.cluster`` and
``cluster_incremental`` must reproduce its merge order, recorded pair
order, distances and tie-breaks exactly.
"""

import numpy as np

from oracles.combine import combine_miss_curves_reference
from oracles.partition import partitioned_miss_curve_reference
from repro.core.whirltool.analyzer import ClusteringResult
from repro.core.whirltool.profiler import CallpointProfile
from repro.curves.miss_curve import MissCurve


def pool_distance(a: list[MissCurve], b: list[MissCurve]) -> float:
    """Distance between two pools' per-interval curve series.

    Sum over intervals of the area between the combined and partitioned
    miss curves, normalized per instruction so intervals are comparable.
    """
    if len(a) != len(b):
        raise ValueError("pools must share the interval grid")
    total = 0.0
    for ca, cb in zip(a, b):
        if ca.accesses == 0 or cb.accesses == 0:
            continue  # inactive interval: no interference
        combined = combine_miss_curves_reference(ca, cb)
        partitioned = partitioned_miss_curve_reference(ca, cb)
        area = np.sum(combined.misses - partitioned.misses)
        total += max(float(area), 0.0) / max(combined.instructions, 1e-12)
    return total


def cluster_reference(profile: CallpointProfile) -> ClusteringResult:
    """The serial merge-tree construction (the oracle).

    O(n^2) pairwise :func:`pool_distance` calls into a dict-keyed
    table, updated incrementally — fine for the 10s-100s of
    callpoints real applications have, and the ground truth the
    batched :meth:`WhirlToolAnalyzer.cluster` and
    :meth:`WhirlToolAnalyzer.cluster_incremental` are pinned against.
    """
    pools: dict[frozenset, list[MissCurve]] = {
        frozenset({cp}): series for cp, series in profile.curves.items()
    }
    result = ClusteringResult(
        callpoints=profile.callpoints, names=dict(profile.names)
    )
    # Pairwise distance table, updated incrementally.
    dist: dict[tuple[frozenset, frozenset], float] = {}
    keys = sorted(pools, key=min)
    for i, a in enumerate(keys):
        for b in keys[i + 1 :]:
            dist[(a, b)] = pool_distance(pools[a], pools[b])
    while len(pools) > 1:
        (a, b), d = min(dist.items(), key=lambda kv: (kv[1], sorted(map(min, kv[0]))))
        result.merges.append((a, b, d))
        merged_key = frozenset(a | b)
        merged_curves = [
            combine_miss_curves_reference(ca, cb)
            for ca, cb in zip(pools[a], pools[b])
        ]
        del pools[a]
        del pools[b]
        dist = {
            pair: v
            for pair, v in dist.items()
            if a not in pair and b not in pair
        }
        for other in list(pools):
            dist[(merged_key, other)] = pool_distance(
                merged_curves, pools[other]
            )
        pools[merged_key] = merged_curves
    return result
