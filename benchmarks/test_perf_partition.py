"""Partitioner micro-benchmark: vectorized allocator vs heapq reference.

Same contract as ``test_perf_profiling.py`` one layer up the stack: the
vectorized waterfilling allocator must beat (and stay >= 5x faster than)
the chunk-at-a-time oracle in ``tests/oracles/partition.py`` on a
64-consumer x 4096-chunk instance, while returning bit-identical
allocations.  A second pair of gates runs curves shaped like the 16-core
Fig 22 grid's, whose minimum comes early: the hull scan and the
allocator must each stay >= 5x faster than their oracles there.  A
third pair gates the rest of Jigsaw's decide path on the 16-core chip:
the array reach curve must stay >= 10x faster than per-size
``reach_fn`` calls, and the list-based trading search >= 1.5x faster
than the numpy-scalar oracle in
``tests/oracles/placement.py``.  A fourth pair gates what a single-app
Jigsaw or S-NUCA job sends: the hull scan of latency prefixes cut at
their first minimum must stay >= 1.6x faster than the oracle scan
(3.2-3.9x measured on a 2-vCPU host), and one VC's 48-interval flow
heads >= 50x faster than the per-interval scalar flow loop (220-250x
measured).  Timings are also written as JSON
(``benchmarks/perf_partition_timings.json``, gitignored) so CI can
upload them as an artifact; wall-clock numbers stay out of
``benchmarks/results/``.
"""

import time
from pathlib import Path

import numpy as np
from oracles.combine import shared_cache_misses_reference
from oracles.partition import _lower_convex_hull, partition_cost_curves_reference
from oracles.placement import trading_placement_reference

from repro.curves import MissCurve
from repro.curves.combine import advance_flow_heads
from repro.curves.miss_curve import _first_minimum, _lower_convex_hull_fast, interp_rows
from repro.curves.partition import partition_cost_curves
from repro.nuca import sixteen_core_config
from repro.obs.timings import record_timings
from repro.schemes.placement import PLACE_CHUNK, trading_placement

N_CONSUMERS = 64
N_CHUNKS = 4096

TIMINGS_PATH = Path(__file__).parent / "perf_partition_timings.json"


def _instance(n_consumers=N_CONSUMERS, n_chunks=N_CHUNKS, seed=11):
    """Synthetic cost curves: convex decay plus a few concave cliffs.

    Every curve falls to its last point, so every chunk is in play and
    the merge ranks all marginal gains: a stress case for the allocator,
    not the shape Jigsaw sends (see :func:`_real_instance`).
    """
    rng = np.random.default_rng(seed)
    curves = []
    for __ in range(n_consumers):
        gains = np.sort(rng.exponential(1.0, size=n_chunks)) + 1e-6
        vals = np.concatenate([[0.0], np.cumsum(gains)])[::-1].copy()
        for pos in rng.integers(1, n_chunks, size=3):
            vals[:pos] += rng.uniform(50, 200)
        curves.append(vals)
    return curves


def _real_instance(rising, n_curves=48, n_points=1297, seed=13):
    """Curves shaped like the 16-core grid's (1297 points, 1296 chunks).

    A step-shaped falling head reaches the minimum at 2-20% of the grid.
    The tail is flat for a miss curve or rate row (what the hull scan
    sees) and rising for a latency curve past its best size, where the
    network term outgrows the saved misses (what Jigsaw partitions).
    """
    rng = np.random.default_rng(seed)
    curves = []
    for __ in range(n_curves):
        m = int(rng.integers(n_points // 50, n_points // 5))
        drops = rng.exponential(1.0, m) * (rng.random(m) < 0.5)
        drops[-1] += 1e-3  # the head ends strictly above the minimum
        head = 1.0 + np.cumsum(drops[::-1])[::-1]
        steps = rng.exponential(1e-3, n_points - m) if rising else np.zeros(n_points - m)
        curves.append(np.concatenate([head, 1.0 + np.cumsum(steps)]))
    return curves


def _best_of(fn, repeats=3):
    best, result = float("inf"), None
    for __ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _demands_16core(n_vcs=36, seed=17):
    """Trading input shaped like a 16-core Jigsaw call: VCs split the LLC.

    Sizes are whole 64 KB units from a flat Dirichlet split of the LLC,
    owners are drawn over all cores (several VCs per core), and access
    counts are log-normal, so intensities span orders of magnitude.
    """
    geo = sixteen_core_config().geometry
    rng = np.random.default_rng(seed)
    units = rng.dirichlet(np.ones(n_vcs)) * (geo.total_bytes // PLACE_CHUNK)
    return geo, {
        vc: (
            int(rng.integers(geo.n_cores)),
            float(max(1, int(units[vc])) * PLACE_CHUNK),
            float(rng.lognormal(10.0, 2.0)),
        )
        for vc in range(n_vcs)
    }


def _record_timings(name, t_vec, t_ref, gate="speedup >= 5.0x"):
    """Append one benchmark's timings (fast engine vs oracle) to the CI artifact JSON.

    ``gate`` is the condition the test asserts, as recorded in the JSON.
    """
    record_timings(
        TIMINGS_PATH,
        name,
        {
            "vectorized_s": t_vec,
            "reference_s": t_ref,
            "speedup": (t_ref / t_vec, "x"),
        },
        gate=gate,
    )


class TestPerfPartition:
    def test_perf_smoke_16x512(self):
        """CI gate: vectorized must beat the reference on a small grid."""
        curves = _instance(n_consumers=16, n_chunks=512, seed=3)
        total = 16 * 512 // 2
        t_vec, got = _best_of(lambda: partition_cost_curves(curves, total))
        t_ref, want = _best_of(
            lambda: partition_cost_curves_reference(curves, total)
        )
        assert got == want
        _record_timings("smoke_16x512", t_vec, t_ref, gate="vectorized_s < reference_s")
        print(
            f"\n[perf] partition 16x512: vectorized {t_vec*1e3:.1f} ms, "
            f"reference {t_ref*1e3:.1f} ms, speedup {t_ref / t_vec:.1f}x"
        )
        assert t_vec < t_ref, (
            f"vectorized allocator slower than reference: {t_vec:.4f}s "
            f">= {t_ref:.4f}s"
        )

    def test_perf_smoke_64x4096_speedup(self):
        """Headline instance: 64 consumers x 4096 chunks, >= 5x required.

        Full contention (every chunk is in play) so the merge ranks all
        ~260k marginal-gain segments; measured speedup is 5.6-8.1x on a
        2-vCPU host, asserted at the 5x acceptance floor so slow CI
        boxes don't flake.  The two sides alternate for five rounds and
        each keeps its best, so a slow spell of the host slows both
        sides instead of only the one timed during it.
        """
        curves = _instance()
        total = N_CONSUMERS * N_CHUNKS
        t_vec = t_ref = float("inf")
        for __ in range(5):
            t, got = _best_of(lambda: partition_cost_curves(curves, total), repeats=1)
            t_vec = min(t_vec, t)
            t, want = _best_of(
                lambda: partition_cost_curves_reference(curves, total), repeats=1
            )
            t_ref = min(t_ref, t)
        assert got == want  # bit-identical sizes and total cost
        speedup = t_ref / t_vec
        _record_timings("smoke_64x4096", t_vec, t_ref)
        print(
            f"\n[perf] partition 64x4096: vectorized {t_vec*1e3:.1f} ms, "
            f"reference {t_ref*1e3:.1f} ms, speedup {speedup:.1f}x"
        )
        assert speedup >= 5.0, f"speedup regressed to {speedup:.1f}x"

    def test_perf_real_shape_hull_speedup(self):
        """48 flat-tailed 16-core curves: the hull scan stops at each minimum."""
        curves = _real_instance(rising=False)
        t_fast, got = _best_of(lambda: [_lower_convex_hull_fast(c) for c in curves], repeats=5)
        t_ref, want = _best_of(lambda: [_lower_convex_hull(c) for c in curves], repeats=5)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        speedup = t_ref / t_fast
        _record_timings("hull_real_48x1297", t_fast, t_ref)
        print(
            f"\n[perf] hull 48x1297 real-shaped: fast {t_fast*1e3:.1f} ms, "
            f"reference {t_ref*1e3:.1f} ms, speedup {speedup:.1f}x"
        )
        assert speedup >= 5.0, f"hull speedup regressed to {speedup:.1f}x"

    def test_perf_latency_prefix_hull_speedup(self):
        """48 rising-tailed latency curves cut at each first minimum, >= 1.6x.

        What ``partition_cost_curves`` hulls in Jigsaw's decide: short,
        step-shaped prefixes where most consecutive triples pop.
        """
        prefixes = [c[: _first_minimum(c) + 1] for c in _real_instance(rising=True)]
        t_fast, got = _best_of(
            lambda: [_lower_convex_hull_fast(p) for p in prefixes], repeats=5
        )
        t_ref, want = _best_of(
            lambda: [_lower_convex_hull(p) for p in prefixes], repeats=5
        )
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        speedup = t_ref / t_fast
        _record_timings("hull_latency_prefix_48", t_fast, t_ref, gate="speedup >= 1.6x")
        print(
            f"\n[perf] hull 48 latency prefixes: fast {t_fast*1e3:.1f} ms, "
            f"reference {t_ref*1e3:.1f} ms, speedup {speedup:.1f}x"
        )
        assert speedup >= 1.6, f"hull speedup regressed to {speedup:.1f}x"

    def test_perf_lone_stream_flow_heads_speedup(self):
        """One VC's 48 interval rate rows sharing a 200-chunk LLC, >= 50x.

        S-NUCA's accounting of a single-VC job: every lane has one
        stream, so ``advance_flow_heads`` lands each head in closed form
        instead of stepping 200 times.
        """
        rng = np.random.default_rng(19)
        width, steps, chunk = 401, 200, 1024
        curves = []
        for __ in range(48):
            floor = rng.uniform(0.001, 0.01)
            decay = np.exp(-np.arange(width) / rng.uniform(5.0, 120.0))
            curves.append(
                MissCurve(
                    misses=(floor + rng.uniform(0.005, 0.02) * decay) * 1e6,
                    chunk_bytes=chunk,
                    accesses=5e4,
                    instructions=1e6,
                )
            )
        rates = np.stack([c.misses / c.instructions for c in curves])
        instr = np.array([c.instructions for c in curves])
        included = np.ones((1, len(curves)), dtype=bool)

        def batched():
            heads = advance_flow_heads(rates, included, steps)
            return (interp_rows(rates, heads) * instr).tolist()

        t_fast, got = _best_of(batched, repeats=5)
        t_ref, want = _best_of(
            lambda: [
                shared_cache_misses_reference([c], steps * chunk)[0] for c in curves
            ],
            repeats=3,
        )
        assert got == want
        speedup = t_ref / t_fast
        _record_timings("flow_heads_lone_48x401", t_fast, t_ref, gate="speedup >= 50.0x")
        print(
            f"\n[perf] flow heads 48 lone lanes x 200 steps: batched {t_fast*1e3:.2f} ms, "
            f"reference {t_ref*1e3:.1f} ms, speedup {speedup:.1f}x"
        )
        assert speedup >= 50.0, f"flow heads speedup regressed to {speedup:.1f}x"

    def test_perf_real_shape_partition_speedup(self):
        """48 rising-tailed 16-core latency curves sharing the whole LLC."""
        curves = _real_instance(rising=True)
        total = len(curves[0]) - 1
        t_vec, got = _best_of(lambda: partition_cost_curves(curves, total), repeats=5)
        t_ref, want = _best_of(
            lambda: partition_cost_curves_reference(curves, total), repeats=5
        )
        assert got == want
        speedup = t_ref / t_vec
        _record_timings("partition_real_48x1297", t_vec, t_ref)
        print(
            f"\n[perf] partition 48x1297 real-shaped: vectorized {t_vec*1e3:.1f} ms, "
            f"reference {t_ref*1e3:.1f} ms, speedup {speedup:.1f}x"
        )
        assert speedup >= 5.0, f"speedup regressed to {speedup:.1f}x"

    def test_perf_reach_curve_speedup(self):
        """Every core's reach curve on the 16-core 1297-point grid, >= 10x."""
        geo = sixteen_core_config().geometry
        sizes = np.arange(1297) * float(32 * 1024)
        cores = range(geo.n_cores)
        t_vec, got = _best_of(
            lambda: [geo.reach_curve(c, sizes) for c in cores], repeats=5
        )
        t_ref, want = _best_of(
            lambda: [
                np.array([geo.reach_fn(c)(s) for s in sizes]) for c in cores
            ],
            repeats=5,
        )
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        speedup = t_ref / t_vec
        _record_timings("reach_curve_16x1297", t_vec, t_ref, gate="speedup >= 10.0x")
        print(
            f"\n[perf] reach curve 16 cores x 1297 sizes: array {t_vec*1e3:.2f} ms, "
            f"per-size {t_ref*1e3:.1f} ms, speedup {speedup:.1f}x"
        )
        assert speedup >= 10.0, f"reach curve speedup regressed to {speedup:.1f}x"

    def test_perf_trading_speedup(self):
        """Trading placement of 36 VCs on the 16-core mesh, >= 1.5x."""
        geo, demands = _demands_16core()
        t_fast, got = _best_of(lambda: trading_placement(geo, demands), repeats=5)
        t_ref, want = _best_of(
            lambda: trading_placement_reference(geo, demands), repeats=5
        )
        for vc in demands:
            assert list(got[vc].bank_bytes.items()) == list(
                want[vc].bank_bytes.items()
            )
        speedup = t_ref / t_fast
        _record_timings("trading_16core_36vc", t_fast, t_ref, gate="speedup >= 1.5x")
        print(
            f"\n[perf] trading 36 VCs, 16 cores: lists {t_fast*1e3:.2f} ms, "
            f"numpy scalars {t_ref*1e3:.2f} ms, speedup {speedup:.1f}x"
        )
        assert speedup >= 1.5, f"trading speedup regressed to {speedup:.1f}x"
