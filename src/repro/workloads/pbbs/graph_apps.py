"""PBBS graph kernels: BFS, MIS, matching, MST, ST, setCover.

These run the real algorithms on random CSR graphs (vectorized with
numpy) while recording the address stream of every data structure.  Their
shared character — small, reusable vertex-state arrays vs. a large,
stream-once edge array — is exactly what drives the paper's mis case
study (Fig 9/10): Whirlpool caches vertex state and bypasses edges.
"""

from __future__ import annotations

import numpy as np

from repro.mem.allocator import HeapAllocator, PoolAllocator
from repro.workloads import patterns
from repro.workloads.graphs import Graph, uniform_random_graph
from repro.workloads.trace import TraceBuilder, Workload

__all__ = [
    "build_bfs",
    "build_mis",
    "build_matching",
    "build_mst",
    "build_st",
    "build_setcover",
]

#: Graph sizes by scale: (vertices, average degree).
_GRAPH_SCALES = {
    "train": (60_000, 8.0),
    "small": (60_000, 8.0),
    "ref": (260_000, 11.0),
    "large": (260_000, 11.0),
}

_WORD = 8  # bytes per vertex-state element


def _graph_scale(scale: str) -> tuple[int, float]:
    try:
        return _GRAPH_SCALES[scale]
    except KeyError:
        raise ValueError(f"unknown scale {scale!r}") from None


def _alloc_graph(
    alloc: PoolAllocator, graph: Graph, offsets_pool: str, targets_pool: str
):
    """Allocate CSR arrays from named pools."""
    offsets = alloc.malloc((graph.n + 1) * _WORD, offsets_pool)
    targets = alloc.malloc(max(graph.m, 1) * _WORD, targets_pool)
    return offsets, targets


def _row_edge_positions(graph: Graph, frontier: np.ndarray) -> np.ndarray:
    """Edge-array positions of all adjacency entries of ``frontier``."""
    degs = graph.offsets[frontier + 1] - graph.offsets[frontier]
    total = int(degs.sum())
    if total == 0:
        return np.array([], dtype=np.int64)
    starts = np.repeat(graph.offsets[frontier], degs)
    within = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(degs) - degs, degs
    )
    return starts + within


def build_bfs(scale: str = "ref", seed: int = 0) -> Workload:
    """Breadth-first search (Table 2: vertices/edges/frontier/visited).

    Level-synchronous BFS: per level, read the frontier queue, the CSR
    offsets of frontier vertices, gather their adjacency lists, and
    check/update the visited array of every neighbor.
    """
    n, deg = _graph_scale(scale)
    graph = uniform_random_graph(n, deg, seed=seed)
    heap = HeapAllocator()
    alloc = PoolAllocator(heap)
    offsets_a, targets_a = _alloc_graph(alloc, graph, "vertices", "edges")
    visited_a = alloc.malloc(graph.n * _WORD, "visited")
    frontier_a = alloc.malloc(graph.n * _WORD, "frontier")

    tb = TraceBuilder()
    r_vert = tb.region("vertices", offsets_a)
    r_edge = tb.region("edges", targets_a)
    r_vis = tb.region("visited", visited_a)
    r_front = tb.region("frontier", frontier_a)

    visited = np.zeros(graph.n, dtype=bool)
    rng = np.random.default_rng(seed + 1)
    source = int(rng.integers(0, graph.n))
    frontier = np.array([source], dtype=np.int64)
    visited[source] = True
    while len(frontier) > 0:
        edge_pos = _row_edge_positions(graph, frontier)
        neighbors = graph.targets[edge_pos]
        tb.access_interleaved(
            {
                r_front: patterns.gather(frontier_a, np.arange(len(frontier)), _WORD),
                r_vert: patterns.gather(offsets_a, frontier, _WORD),
                r_edge: patterns.gather(targets_a, edge_pos, _WORD),
                r_vis: patterns.gather(visited_a, neighbors, _WORD),
            }
        )
        fresh = neighbors[~visited[neighbors]]
        frontier = np.unique(fresh)
        visited[frontier] = True

    trace = tb.finalize(apki=30.0)
    return Workload(
        name="BFS",
        trace=trace,
        heap=heap,
        manual_pools={
            r_vert: "vertices",
            r_edge: "edges",
            r_front: "frontier",
            r_vis: "visited",
        },
        table2_loc=16,
    )


def build_mis(scale: str = "ref", seed: int = 0) -> Workload:
    """Maximal independent set (Table 2: vertices/edges/flags).

    Greedy sequential MIS: visit vertices in order; an undecided vertex
    joins the set and marks all neighbors out.  Vertex state (flags)
    caches well; the edge array streams once — the paper's flagship
    bypassing example (Fig 9/10: +38% over Jigsaw).
    """
    n, deg = _graph_scale(scale)
    graph = uniform_random_graph(n, deg, seed=seed + 10)
    heap = HeapAllocator()
    alloc = PoolAllocator(heap)
    offsets_a, targets_a = _alloc_graph(alloc, graph, "vertices", "edges")
    flags_a = alloc.malloc(graph.n * _WORD, "flags")

    tb = TraceBuilder()
    r_vert = tb.region("vertices", offsets_a)
    r_edge = tb.region("edges", targets_a)
    r_flag = tb.region("flags", flags_a)

    flags = np.zeros(graph.n, dtype=np.int8)  # 0 undecided, 1 in, 2 out
    # Process vertices in blocks so the recorded stream stays vectorized.
    block = 4096
    order = np.arange(graph.n, dtype=np.int64)
    for lo in range(0, graph.n, block):
        vs = order[lo : lo + block]
        undecided = vs[flags[vs] == 0]
        flags[undecided] = 1
        edge_pos = _row_edge_positions(graph, undecided)
        neighbors = graph.targets[edge_pos]
        flags[neighbors[flags[neighbors] == 0]] = 2
        tb.access_interleaved(
            {
                r_vert: patterns.gather(offsets_a, vs, _WORD),
                r_edge: patterns.gather(targets_a, edge_pos, _WORD),
                r_flag: np.concatenate(
                    [
                        patterns.gather(flags_a, vs, _WORD),
                        patterns.gather(flags_a, neighbors, _WORD),
                    ]
                ),
            }
        )

    trace = tb.finalize(apki=110.0)
    return Workload(
        name="MIS",
        trace=trace,
        heap=heap,
        manual_pools={r_vert: "vertices", r_edge: "edges", r_flag: "flags"},
        table2_loc=13,
    )


def build_matching(scale: str = "ref", seed: int = 0) -> Workload:
    """Maximal matching (Table 2: vertices/edges/result).

    Scans the edge list once; an edge joins the matching when both
    endpoints are free.  Endpoint checks are random accesses into the
    small matched array; results append sequentially.
    """
    n, deg = _graph_scale(scale)
    rng = np.random.default_rng(seed + 20)
    m = int(n * deg / 2)
    src = rng.integers(0, n, size=m, dtype=np.int64)
    dst = rng.integers(0, n, size=m, dtype=np.int64)

    heap = HeapAllocator()
    alloc = PoolAllocator(heap)
    edges_a = alloc.malloc(2 * m * _WORD, "edges")
    matched_a = alloc.malloc(n * _WORD, "vertices")
    result_a = alloc.malloc(n * _WORD, "result")

    tb = TraceBuilder()
    r_edge = tb.region("edges", edges_a)
    r_vert = tb.region("vertices", matched_a)
    r_res = tb.region("result", result_a)

    matched = np.zeros(n, dtype=bool)
    block = 16384
    n_matched = 0
    for lo in range(0, m, block):
        u = src[lo : lo + block]
        v = dst[lo : lo + block]
        ok = ~matched[u] & ~matched[v] & (u != v)
        # Sequential conflicts within a block are rare on random graphs;
        # first-wins semantics approximated by unique-endpoint filtering.
        matched[u[ok]] = True
        matched[v[ok]] = True
        k = int(np.count_nonzero(ok))
        tb.access_interleaved(
            {
                r_edge: patterns.gather(
                    edges_a, np.arange(2 * lo, 2 * lo + 2 * len(u)), _WORD
                ),
                r_vert: np.concatenate(
                    [
                        patterns.gather(matched_a, u, _WORD),
                        patterns.gather(matched_a, v, _WORD),
                    ]
                ),
                r_res: patterns.gather(
                    result_a, np.arange(n_matched, n_matched + k), _WORD
                ),
            }
        )
        n_matched += k

    trace = tb.finalize(apki=45.0)
    return Workload(
        name="matching",
        trace=trace,
        heap=heap,
        manual_pools={r_vert: "vertices", r_edge: "edges", r_res: "result"},
        table2_loc=13,
    )


def _union_find_workload(
    name: str,
    loc: int,
    scale: str,
    seed: int,
    sort_edges: bool,
) -> Workload:
    """Shared skeleton of ST (spanning forest) and MST (Kruskal).

    Scans the edge list (sorted by weight for MST), doing union-find on
    the parents array (random accesses with path compression) and
    appending tree edges to the output.
    """
    n, deg = _graph_scale(scale)
    rng = np.random.default_rng(seed + 30)
    m = int(n * deg / 4)  # sparser input: union-find paths dominate anyway
    src = rng.integers(0, n, size=m, dtype=np.int64)
    dst = rng.integers(0, n, size=m, dtype=np.int64)
    if sort_edges:
        weights = rng.random(m)
        order = np.argsort(weights)
        src, dst = src[order], dst[order]

    heap = HeapAllocator()
    alloc = PoolAllocator(heap)
    edges_a = alloc.malloc(2 * m * _WORD, "input edges")
    parents_a = alloc.malloc(n * _WORD, "union-find parents")
    output_a = alloc.malloc(n * _WORD, "output tree")

    tb = TraceBuilder()
    r_edge = tb.region("input edges", edges_a)
    r_par = tb.region("union-find parents", parents_a)
    r_out = tb.region("output tree", output_a)

    parents = np.arange(n, dtype=np.int64)

    def find_batch(vs: np.ndarray, touched: list[np.ndarray]) -> np.ndarray:
        roots = vs.copy()
        active = np.arange(len(vs))
        nodes_list = [vs.copy()]
        pos_list = [active.copy()]
        touched.append(vs.copy())
        for __ in range(30):
            nxt = parents[roots[active]]
            moved = nxt != roots[active]
            roots[active] = nxt
            active = active[moved]
            if len(active) == 0:
                break
            nodes_list.append(roots[active].copy())
            pos_list.append(active.copy())
            touched.append(roots[active].copy())
        # Full path compression: every touched node points at its root.
        all_nodes = np.concatenate(nodes_list)
        all_pos = np.concatenate(pos_list)
        parents[all_nodes] = roots[all_pos]
        return roots

    block = 16384
    n_out = 0
    for lo in range(0, m, block):
        u = src[lo : lo + block]
        v = dst[lo : lo + block]
        touched: list[np.ndarray] = []
        ru = find_batch(u, touched)
        rv = find_batch(v, touched)
        join = ru != rv
        parents[ru[join]] = rv[join]
        # Path compression.
        parents[u] = parents[ru]
        parents[v] = parents[rv]
        k = int(np.count_nonzero(join))
        tb.access_interleaved(
            {
                r_edge: patterns.gather(
                    edges_a, np.arange(2 * lo, 2 * lo + 2 * len(u)), _WORD
                ),
                r_par: patterns.gather(parents_a, np.concatenate(touched), _WORD),
                r_out: patterns.gather(output_a, np.arange(n_out, n_out + k), _WORD),
            }
        )
        n_out += k

    trace = tb.finalize(apki=40.0)
    return Workload(
        name=name,
        trace=trace,
        heap=heap,
        manual_pools={
            r_par: "union-find parents",
            r_out: "output tree",
            r_edge: "input edges",
        },
        table2_loc=loc,
    )


def build_st(scale: str = "ref", seed: int = 0) -> Workload:
    """Spanning forest via union-find (Table 2, 13 LOC)."""
    return _union_find_workload("ST", 13, scale, seed, sort_edges=False)


def build_mst(scale: str = "ref", seed: int = 0) -> Workload:
    """Minimal spanning forest, Kruskal on pre-sorted edges (Table 2, 11 LOC)."""
    return _union_find_workload("MST", 11, scale, seed, sort_edges=True)


def build_setcover(scale: str = "ref", seed: int = 0) -> Workload:
    """Greedy set cover: bucketed sets scanned by size, coverage flags random.

    The ref input uses a power-law set-size distribution; the train input
    is near-uniform, which shifts the sets pool's reuse profile — one of
    the four apps whose training input matters in Fig 18.
    """
    n, deg = _graph_scale(scale)
    n_elems = n
    n_sets = n // 4
    rng = np.random.default_rng(seed + 40)
    if scale in ("ref", "large"):
        sizes = np.clip(patterns.zipf_draws(rng, 1.6, n_sets), 2, 400)
    else:
        sizes = rng.integers(2, int(2 * deg), size=n_sets)
    total = int(sizes.sum())
    members = rng.integers(0, n_elems, size=total, dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)

    heap = HeapAllocator()
    alloc = PoolAllocator(heap)
    sets_a = alloc.malloc(total * _WORD, "sets")
    covered_a = alloc.malloc(n_elems * _WORD, "covered")
    chosen_a = alloc.malloc(n_sets * _WORD, "chosen")
    queue_a = alloc.malloc(n_sets * _WORD, "bucket queue")

    tb = TraceBuilder()
    r_sets = tb.region("sets", sets_a)
    r_cov = tb.region("covered", covered_a)
    r_cho = tb.region("chosen", chosen_a)
    r_q = tb.region("bucket queue", queue_a)

    covered = np.zeros(n_elems, dtype=bool)
    order = np.argsort(sizes)[::-1]  # largest sets first (greedy buckets)
    block = 2048
    n_chosen = 0
    for lo in range(0, n_sets, block):
        set_ids = order[lo : lo + block]
        positions = np.concatenate(
            [np.arange(offsets[s], offsets[s + 1]) for s in set_ids.tolist()]
        )
        elems = members[positions]
        new = ~covered[elems]
        covered[elems[new]] = True
        k = int(np.count_nonzero(new) > 0)
        tb.access_interleaved(
            {
                r_sets: patterns.gather(sets_a, positions, _WORD),
                r_cov: patterns.gather(covered_a, elems, _WORD),
                r_cho: patterns.gather(
                    chosen_a, np.arange(n_chosen, n_chosen + len(set_ids)), _WORD
                ),
                # The bucket queue is consumed once, in priority order.
                r_q: patterns.gather(queue_a, set_ids, _WORD),
            }
        )
        n_chosen += k

    trace = tb.finalize(apki=35.0)
    return Workload(name="setCover", trace=trace, heap=heap)
