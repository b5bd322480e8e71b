"""Clustering micro-benchmark: batched engine vs the serial oracle.

Same contract as the profiling and partitioning smokes downstack: the
batched ``WhirlToolAnalyzer.cluster`` (condensed distance matrix, one
batched combine/partition evaluation per distance row) must beat — and
stay >= 5x faster than — the retained ``cluster_reference`` on a
48-callpoint x 16-interval profile, while producing a bit-identical
merge tree.  A third case runs real-shaped curves on the 401-point
online grid, where Listing 1's step loop sets the cost.  Timings are
written as JSON
(``benchmarks/perf_clustering_timings.json``, gitignored) so CI can
upload them as an artifact; wall-clock numbers stay out of
``benchmarks/results/``.
"""

import time
from pathlib import Path

import numpy as np

from repro.core.whirltool import WhirlToolAnalyzer
from repro.core.whirltool.profiler import CallpointProfile
from repro.curves import MissCurve
from repro.obs.timings import record_timings

N_CALLPOINTS = 48
N_INTERVALS = 16
N_CHUNKS = 64
CHUNK_BYTES = 64 * 1024

TIMINGS_PATH = Path(__file__).parent / "perf_clustering_timings.json"


def _instance(
    n_callpoints=N_CALLPOINTS,
    n_intervals=N_INTERVALS,
    n_chunks=N_CHUNKS,
    seed=7,
):
    """A profile shaped like a large application: a mix of cache-friendly,
    streaming, and cliff callpoints, with idle phases sprinkled in so the
    inactive-interval skip path is exercised too."""
    rng = np.random.default_rng(seed)
    curves = {}
    for cp in range(n_callpoints):
        kind = rng.integers(0, 3)
        series = []
        for __ in range(n_intervals):
            if rng.random() < 0.15:
                series.append(
                    MissCurve(np.zeros(n_chunks + 1), CHUNK_BYTES, 0.0, 1e6)
                )
                continue
            scale = float(rng.uniform(50, 2000))
            if kind == 0:  # cache-friendly exponential decay
                vals = scale * np.power(
                    rng.uniform(0.6, 0.9), np.arange(n_chunks + 1)
                )
            elif kind == 1:  # streaming
                vals = np.full(n_chunks + 1, scale)
            else:  # working-set cliff
                knee = int(rng.integers(1, n_chunks))
                vals = np.concatenate(
                    [
                        np.full(knee, scale),
                        np.full(
                            n_chunks + 1 - knee,
                            scale * rng.uniform(0.0, 0.2),
                        ),
                    ]
                )
            series.append(
                MissCurve(
                    misses=vals,
                    chunk_bytes=CHUNK_BYTES,
                    accesses=float(vals[0]),
                    instructions=float(rng.uniform(5e5, 2e6)),
                )
            )
        curves[cp] = series
    return CallpointProfile(
        curves=curves,
        names={cp: f"r{cp}" for cp in curves},
        n_intervals=n_intervals,
    )


def _real_instance(n_callpoints=12, n_intervals=4, n_chunks=400, seed=11):
    """A profile on the online grid (401 points) with real-shaped curves.

    Each curve falls to its floor at 2-20% of the grid and stays flat,
    like a measured miss curve; the floor is above zero, so Listing 1's
    flows never stop and every combine runs all 401 steps.
    """
    rng = np.random.default_rng(seed)
    curves = {}
    for cp in range(n_callpoints):
        series = []
        for __ in range(n_intervals):
            m = int(rng.integers(n_chunks // 50, n_chunks // 5))
            floor = float(rng.uniform(5, 50))
            head = floor + np.sort(rng.exponential(200.0, m))[::-1]
            vals = np.concatenate([head, np.full(n_chunks + 1 - m, floor)])
            series.append(
                MissCurve(
                    misses=vals,
                    chunk_bytes=CHUNK_BYTES,
                    accesses=float(vals[0]),
                    instructions=float(rng.uniform(5e5, 2e6)),
                )
            )
        curves[cp] = series
    return CallpointProfile(
        curves=curves,
        names={cp: f"r{cp}" for cp in curves},
        n_intervals=n_intervals,
    )


def _best_of(fn, repeats=1):
    best, result = float("inf"), None
    for __ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _record_timings(name, t_batched, t_ref):
    """Append one benchmark's timings to the CI artifact JSON."""
    record_timings(
        TIMINGS_PATH,
        name,
        {
            "batched_s": t_batched,
            "reference_s": t_ref,
            "speedup": (t_ref / t_batched, "x"),
        },
        gate="speedup >= 5.0x",
    )


class TestPerfClustering:
    def test_perf_smoke_12x4(self):
        """CI gate: batched must beat the reference on a small profile."""
        profile = _instance(n_callpoints=12, n_intervals=4, seed=3)
        analyzer = WhirlToolAnalyzer()
        t_batched, got = _best_of(lambda: analyzer.cluster(profile), repeats=3)
        t_ref, want = _best_of(
            lambda: analyzer.cluster_reference(profile), repeats=3
        )
        assert got.merges == want.merges  # bit-identical tree
        _record_timings("smoke_12x4", t_batched, t_ref)
        print(
            f"\n[perf] clustering 12x4: batched {t_batched*1e3:.1f} ms, "
            f"reference {t_ref*1e3:.1f} ms, speedup {t_ref / t_batched:.1f}x"
        )
        assert t_batched < t_ref, (
            f"batched clustering slower than reference: {t_batched:.4f}s "
            f">= {t_ref:.4f}s"
        )

    def test_perf_smoke_48x16_speedup(self):
        """Headline instance: 48 callpoints x 16 intervals, >= 5x required.

        ~1128 initial pairs and 47 merges; the reference runs every
        pair x interval through the scalar Listing-1 loop plus two
        per-pair hulls, the batched engine runs them as a handful of
        array passes.  Measured speedup is ~15x on a dedicated core,
        asserted at the 5x acceptance floor so slow CI boxes don't flake.
        """
        profile = _instance()
        analyzer = WhirlToolAnalyzer()
        t_batched, got = _best_of(lambda: analyzer.cluster(profile), repeats=2)
        t_ref, want = _best_of(lambda: analyzer.cluster_reference(profile))
        # Bit-identical merge trees: order, clusters, and exact distances.
        assert got.merges == want.merges
        assert got.callpoints == want.callpoints
        speedup = t_ref / t_batched
        _record_timings("smoke_48x16", t_batched, t_ref)
        print(
            f"\n[perf] clustering 48x16: batched {t_batched*1e3:.1f} ms, "
            f"reference {t_ref*1e3:.1f} ms, speedup {speedup:.1f}x"
        )
        assert speedup >= 5.0, f"speedup regressed to {speedup:.1f}x"

    def test_perf_real_shape_12x4_wide(self):
        """Real-shaped curves on the 401-point online grid.

        Here Listing 1's step loop, not the pair count, sets the cost:
        every combine runs its 401 steps.  Gated like the 12x4 smoke.
        """
        profile = _real_instance()
        analyzer = WhirlToolAnalyzer()
        t_batched, got = _best_of(lambda: analyzer.cluster(profile), repeats=3)
        t_ref, want = _best_of(lambda: analyzer.cluster_reference(profile))
        assert got.merges == want.merges  # bit-identical tree
        _record_timings("real_shape_12x4_401", t_batched, t_ref)
        print(
            f"\n[perf] clustering 12x4 real-shaped, 401 wide: batched "
            f"{t_batched*1e3:.1f} ms, reference {t_ref*1e3:.1f} ms, "
            f"speedup {t_ref / t_batched:.1f}x"
        )
        assert t_batched < t_ref, (
            f"batched clustering slower than reference: {t_batched:.4f}s "
            f">= {t_ref:.4f}s"
        )
