"""Fig 17: WhirlTool's hierarchical clustering (dt and omnetpp).

Shows the merge tree (distance at each merge) and the 3-pool cut.
"""

from conftest import once

from repro.core.whirltool import train_whirltool
from repro.workloads import build_workload


def test_fig17_dendrograms(benchmark, report):
    def run():
        return {
            app: train_whirltool(app).clustering for app in ("delaunay", "omnet")
        }

    clusterings = once(benchmark, run)
    sections = []
    for app, clustering in sorted(clusterings.items()):
        assign = clustering.assignments(3)
        pools = {}
        for cp, pool in assign.items():
            pools.setdefault(pool, []).append(
                clustering.names.get(cp, str(cp))
            )
        cut = "; ".join(
            f"pool{p}: {', '.join(sorted(members))}"
            for p, members in sorted(pools.items())
        )
        sections.append(
            f"--- {app} ---\nmerge tree (distance, clusters):\n"
            f"{clustering.dendrogram_text()}\n3-pool cut: {cut}"
        )
    report("fig17_dendrograms", "\n\n".join(sections))

    dt = clusterings["delaunay"]
    w = build_workload("delaunay", scale="train", seed=0)
    assert set(dt.callpoints) == set(w.region_names)
    # Merge distances are recorded for every merge.
    assert len(dt.merges) == len(dt.callpoints) - 1
