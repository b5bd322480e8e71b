"""PBBS geometry kernels: delaunay (dt), refine, hull, neighbors, ray.

dt reproduces the structure of Fig 2: three pools (points, vertices,
triangles) of 0.5 / 1.5 / 4 MB with near-equal access splits, built by an
incremental-insertion loop whose structures grow as points are inserted.
refine reproduces the Fig 11 phase behaviour: long stretches where
vertices cache well, punctuated by irregular bursts where vertices
stream and misc blows up.
"""

from __future__ import annotations

import numpy as np

from repro.mem.allocator import HeapAllocator, PoolAllocator
from repro.workloads import patterns
from repro.workloads.trace import TraceBuilder, Workload

__all__ = [
    "build_delaunay",
    "build_refine",
    "build_hull",
    "build_neighbors",
    "build_ray",
]

_WORD = 8

_MB = 1 << 20

#: Structure sizes by scale for dt (points, vertices, triangles), bytes.
_DT_SCALES = {
    "train": (_MB // 8, 3 * _MB // 8, _MB),
    "small": (_MB // 8, 3 * _MB // 8, _MB),
    "ref": (_MB // 2, 3 * _MB // 2, 4 * _MB),
    "large": (_MB // 2, 3 * _MB // 2, 4 * _MB),
}


def build_delaunay(scale: str = "ref", seed: int = 0) -> Workload:
    """Delaunay triangulation (Table 2: points/vertices/triangles).

    Randomized incremental insertion: each inserted point reads its input
    point, walks a handful of triangles to locate itself, and updates a
    few vertices.  Working sets grow to 0.5 / 1.5 / 4 MB (Fig 2) with
    accesses split roughly evenly across the three structures.
    """
    try:
        pts_bytes, vert_bytes, tri_bytes = _DT_SCALES[scale]
    except KeyError:
        raise ValueError(f"unknown scale {scale!r}") from None
    rng = np.random.default_rng(seed)

    heap = HeapAllocator()
    alloc = PoolAllocator(heap)
    points_a = alloc.malloc(pts_bytes, "points")
    vertices_a = alloc.malloc(vert_bytes, "vertices")
    triangles_a = alloc.malloc(tri_bytes, "triangles")

    tb = TraceBuilder()
    r_pts = tb.region("points", points_a)
    r_vert = tb.region("vertices", vertices_a)
    r_tri = tb.region("triangles", triangles_a)

    n_points = pts_bytes // (2 * _WORD)  # 2 coordinates per point
    n_rounds = 24
    per_round = n_points // n_rounds
    tri_lines = tri_bytes // 64
    vert_lines = vert_bytes // 64
    for round_idx in range(1, n_rounds + 1):
        grown = round_idx / n_rounds
        # Points are revisited heavily while being inserted (locality).
        pt_idx = rng.integers(0, max(1, int(n_points * grown)), size=10 * per_round)
        # Triangle walk: ~12 triangle reads per insertion over the grown part.
        tri_idx = rng.integers(
            0, max(1, int(tri_lines * grown)), size=12 * per_round
        )
        # Vertex updates: ~12 per insertion.
        vert_idx = rng.integers(
            0, max(1, int(vert_lines * grown)), size=12 * per_round
        )
        tb.access_interleaved(
            {
                r_pts: patterns.gather(points_a, pt_idx, 2 * _WORD),
                r_tri: triangles_a.base + tri_idx * 64,
                r_vert: vertices_a.base + vert_idx * 64,
            }
        )

    trace = tb.finalize(apki=25.0)
    return Workload(
        name="delaunay",
        trace=trace,
        heap=heap,
        manual_pools={r_pts: "points", r_vert: "vertices", r_tri: "triangles"},
        table2_loc=11,
    )


def build_refine(scale: str = "ref", seed: int = 0) -> Workload:
    """Delaunay refinement (Table 2: vertices/triangles/misc).

    Reproduces Fig 11: in the common phase, triangles and misc are small
    and hot while vertices has a large cache-friendly working set; at
    irregular intervals the behaviour inverts for a burst — vertices
    streams, triangles fits, misc's working set grows substantially.
    """
    big = scale in ("ref", "large")
    vert_bytes = (7 * _MB) if big else (2 * _MB)
    tri_bytes = (2 * _MB) if big else (_MB // 2)
    misc_small = _MB // 2
    misc_burst = (5 * _MB) if big else (_MB)
    rng = np.random.default_rng(seed + 7)

    heap = HeapAllocator()
    alloc = PoolAllocator(heap)
    vertices_a = alloc.malloc(vert_bytes, "vertices")
    triangles_a = alloc.malloc(tri_bytes, "triangles")
    misc_a = alloc.malloc(misc_burst, "misc")

    tb = TraceBuilder()
    r_vert = tb.region("vertices", vertices_a)
    r_tri = tb.region("triangles", triangles_a)
    r_misc = tb.region("misc", misc_a)

    n_steps = 30
    step_accesses = 60_000 if big else 25_000
    burst = False
    burst_left = 0
    for __ in range(n_steps):
        if not burst and rng.random() < 0.18:
            burst = True
            burst_left = rng.integers(2, 4)
        if burst:
            # Inverted phase: vertices stream, triangles cache, misc big.
            start = int(rng.integers(0, vert_bytes // 64))
            offs = (start + np.arange(step_accesses // 2)) % (vert_bytes // 64)
            vert_stream = vertices_a.base + offs * 64
            streams = {
                r_vert: vert_stream,
                r_tri: patterns.uniform_random(rng, triangles_a, step_accesses // 4),
                r_misc: patterns.uniform_random(rng, misc_a, step_accesses // 4),
            }
            burst_left -= 1
            if burst_left <= 0:
                burst = False
        else:
            hot_tri = patterns.zipf_random(rng, triangles_a, step_accesses // 4, 1.6)
            hot_misc_idx = rng.integers(0, misc_small // 64, size=step_accesses // 8)
            streams = {
                r_vert: patterns.uniform_random(rng, vertices_a, step_accesses // 2),
                r_tri: hot_tri,
                r_misc: misc_a.base + hot_misc_idx * 64,
            }
        tb.access_interleaved(streams)

    trace = tb.finalize(apki=30.0)
    return Workload(
        name="refine",
        trace=trace,
        heap=heap,
        manual_pools={r_vert: "vertices", r_tri: "triangles", r_misc: "misc"},
        table2_loc=8,
    )


def build_hull(scale: str = "ref", seed: int = 0) -> Workload:
    """Convex hull (Table 2: points/hull array).

    Quickhull makes several filtering passes over a shrinking point set;
    the hull output array is tiny and hot.
    """
    big = scale in ("ref", "large")
    n_points = 400_000 if big else 100_000
    rng = np.random.default_rng(seed + 13)

    heap = HeapAllocator()
    alloc = PoolAllocator(heap)
    points_a = alloc.malloc(n_points * 2 * _WORD, "points")
    hull_a = alloc.malloc(4096 * _WORD, "hull array")

    tb = TraceBuilder()
    r_pts = tb.region("points", points_a)
    r_hull = tb.region("hull array", hull_a)

    # Quickhull recursion as survivor-filtering passes.
    survivors = np.arange(n_points, dtype=np.int64)
    n_hull = 2
    while len(survivors) > 64:
        tb.access_interleaved(
            {
                r_pts: patterns.gather(points_a, survivors, 2 * _WORD),
                r_hull: patterns.gather(
                    hull_a, rng.integers(0, max(n_hull, 1), size=len(survivors) // 8),
                    _WORD,
                ),
            }
        )
        keep = rng.random(len(survivors)) < 0.45
        survivors = survivors[keep]
        n_hull = min(n_hull + max(1, len(survivors) // 1000), 4095)

    trace = tb.finalize(apki=20.0)
    return Workload(
        name="hull",
        trace=trace,
        heap=heap,
        manual_pools={r_pts: "points", r_hull: "hull array"},
        table2_loc=10,
    )


def build_neighbors(scale: str = "ref", seed: int = 0) -> Workload:
    """k-nearest-neighbors on a point grid: queries with spatial locality."""
    big = scale in ("ref", "large")
    n_points = 500_000 if big else 120_000
    n_cells = 65_536
    rng = np.random.default_rng(seed + 17)

    heap = HeapAllocator()
    alloc = PoolAllocator(heap)
    points_a = alloc.malloc(n_points * 2 * _WORD, "points")
    cells_a = alloc.malloc(n_cells * _WORD, "grid cells")
    results_a = alloc.malloc(n_points * _WORD, "results")

    tb = TraceBuilder()
    r_pts = tb.region("points", points_a)
    r_cells = tb.region("grid cells", cells_a)
    r_res = tb.region("results", results_a)

    n_queries = n_points
    block = 32_768
    for lo in range(0, n_queries, block):
        count = min(block, n_queries - lo)
        cell_idx = rng.integers(0, n_cells, size=3 * count)
        # Candidate points cluster around the query's cell.
        centers = rng.integers(0, n_points, size=count)
        cand = (
            centers[:, None] + rng.integers(-16, 17, size=(count, 8))
        ).ravel() % n_points
        tb.access_interleaved(
            {
                r_cells: patterns.gather(cells_a, cell_idx, _WORD),
                r_pts: patterns.gather(points_a, cand, 2 * _WORD),
                r_res: patterns.gather(results_a, np.arange(lo, lo + count), _WORD),
            }
        )

    trace = tb.finalize(apki=28.0)
    return Workload(name="neighbors", trace=trace, heap=heap)


def build_ray(scale: str = "ref", seed: int = 0) -> Workload:
    """Ray casting: rays march through grid cells gathering triangles."""
    big = scale in ("ref", "large")
    n_tris = 300_000 if big else 80_000
    n_cells = 262_144
    n_rays = 120_000 if big else 40_000
    rng = np.random.default_rng(seed + 23)

    heap = HeapAllocator()
    alloc = PoolAllocator(heap)
    tris_a = alloc.malloc(n_tris * 4 * _WORD, "triangles")
    cells_a = alloc.malloc(n_cells * _WORD, "grid")
    rays_a = alloc.malloc(n_rays * 2 * _WORD, "rays")

    tb = TraceBuilder()
    r_tri = tb.region("triangles", tris_a)
    r_cell = tb.region("grid", cells_a)
    r_ray = tb.region("rays", rays_a)

    block = 8192
    for lo in range(0, n_rays, block):
        count = min(block, n_rays - lo)
        # Each ray marches ~12 cells (strided walk from a random origin).
        origins = rng.integers(0, n_cells, size=count)
        steps = (origins[:, None] + np.arange(12) * 64).ravel() % n_cells
        # Each cell gathers ~2 candidate triangles, zipf-hot.
        tri_idx = (patterns.zipf_draws(rng, 1.3, 2 * len(steps)) - 1) % n_tris
        tb.access_interleaved(
            {
                r_ray: patterns.gather(rays_a, np.arange(lo, lo + count), 2 * _WORD),
                r_cell: patterns.gather(cells_a, steps, _WORD),
                r_tri: patterns.gather(tris_a, tri_idx, 4 * _WORD),
            }
        )

    trace = tb.finalize(apki=22.0)
    return Workload(name="ray", trace=trace, heap=heap)
