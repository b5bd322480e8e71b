"""Profiling-engine micro-benchmark: vectorized vs Fenwick reference.

Records old-vs-new wall time for the stack-distance engine so the
speedup stays visible in the bench trajectory, and gates CI: the
vectorized path must never be slower than the per-access Fenwick
reference, ``profile()``'s bookkeeping (region counts, grouping,
chaining, histograms) must stay small next to its dominance sweep, and
that sweep must stay well ahead of the oracle sweep in
``tests/oracles/reuse.py``.  Timings land in ``benchmarks/perf_profiling_timings.json`` (gitignored)
through :func:`repro.obs.timings.record_timings`, not in
``benchmarks/results/``: wall-clock numbers are machine-dependent.
"""

import time
from pathlib import Path

import numpy as np

from repro.curves import (
    StackDistanceProfiler,
    miss_curve_from_distances,
    stack_distances,
)
from repro.curves.miss_curve import MissCurve
from repro.curves.reuse import _distances_from_prev, _prev_occurrence
from repro.obs.timings import infer_unit, record_timings

from oracles.reuse import distances_from_prev_reference, stack_distances_reference

TIMINGS_PATH = Path(__file__).parent / "perf_profiling_timings.json"

#: CI ceiling: a whole ``profile()`` call may cost at most this many
#: times the dominance sweep it wraps (``_distances_from_prev`` on the
#: same grouped, sampled stream).  Measured ~1.8x with sorted-run
#: counts and one quicksort per grouping; the full-trace stable sorts
#: and hash-based ``np.unique`` it replaced measured ~2.8x.
MAX_BOOKKEEPING_RATIO = 2.2

#: CI floor: the engine's sweep (re-touches only, rows of 64 finished
#: with bitmaps) against the oracle sweep (every access, binary levels
#: down to rows of two) on the bookkeeping gate's grouped stream.
#: Measured ~2.0x; the earlier engine, which the oracle keeps, reads
#: ~1.0x.
MIN_SWEEP_SPEEDUP = 1.3

#: The CI gate each recorded entry is checked against.
_GATES = {
    "smoke_200k": "vectorized_s < reference_s",
    "speedup_1m": "speedup >= 5.0",
    "single_pass_400k": "single_pass_s < reference_s",
    "bookkeeping_2m": f"bookkeeping_ratio <= {MAX_BOOKKEEPING_RATIO}",
    "sweep_2m": f"speedup >= {MIN_SWEEP_SPEEDUP}",
}


def _record_timings(name, **fields):
    record_timings(
        TIMINGS_PATH,
        name,
        {k: (v, infer_unit(k)) for k, v in fields.items()},
        gate=_GATES.get(name),
    )


def _trace(n, working_set=65536, seed=7):
    """A dense-reuse LLC line stream with realistic 48-bit addresses."""
    rng = np.random.default_rng(seed)
    return (rng.integers(0, working_set, size=n) * 64 + 0x7F0000000000) >> 6


def _runs_of_regions(n, ids, mean_run, seed):
    """Region ids in runs of geometric length (phases of one callpoint)."""
    rng = np.random.default_rng(seed)
    lengths = rng.geometric(1.0 / mean_run, size=2 * n // mean_run + 16)
    lengths = lengths[: np.searchsorted(np.cumsum(lengths), n) + 1]
    runs = rng.choice(np.asarray(ids, dtype=np.int32), size=len(lengths))
    return np.repeat(runs, lengths)[:n]


#: Callpoint-sized region ids of the bookkeeping and sweep gates.
CALLPOINTS = [140897495, 32215835, 1866041922, 2**31 - 1]


def _bookkeeping_case(n):
    """A trace over a 2^17-line working set, four callpoints in runs, shift 3."""
    lines = _trace(n, working_set=1 << 17, seed=11)
    regions = _runs_of_regions(n, CALLPOINTS, mean_run=4096, seed=5)
    prof = StackDistanceProfiler(chunk_bytes=64 * 1024, n_chunks=400, sample_shift=3)
    return lines, regions, prof


def _grouped_prev(prof, lines, regions):
    """``profile()``'s sweep input: sampled accesses grouped by region.

    Grouped in stream order with a plain stable argsort (the oracle of
    the engine's grouping) and chained per region.  Also returns each
    access's segment start, which the oracle sweep keys first touches by.
    """
    kept = np.flatnonzero(prof._sample_mask(lines))
    g_src = kept[np.argsort(regions[kept], kind="stable")]
    g_regions = regions[g_src]
    prev = _prev_occurrence(np.ascontiguousarray(lines[g_src]), g_regions)
    return prev, np.searchsorted(g_regions, g_regions, side="left")


def _best_of(fn, repeats=3):
    best, result = float("inf"), None
    for __ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _profile_reference(prof, lines, regions, instructions, n_intervals):
    """The pre-vectorization profiler: per-region re-slicing + Fenwick."""
    n = len(lines)
    scale = float(1 << prof.sample_shift)
    instr_per_interval = instructions / n_intervals
    bounds = np.linspace(0, n, n_intervals + 1).astype(np.int64)
    out = {}
    for rid in np.unique(regions).tolist():
        idx = np.nonzero(regions == rid)[0]
        r_lines = lines[idx]
        keep = prof._sample_mask(r_lines)
        kept_idx = idx[keep]
        dist = stack_distances_reference(r_lines[keep])
        curves = []
        for t in range(n_intervals):
            lo, hi = bounds[t], bounds[t + 1]
            window = (kept_idx >= lo) & (kept_idx < hi)
            n_acc = int(np.count_nonzero((idx >= lo) & (idx < hi)))
            curve = miss_curve_from_distances(
                dist[window],
                chunk_bytes=prof.chunk_bytes,
                n_chunks=prof.n_chunks,
                instructions=instr_per_interval,
                line_bytes=prof.line_bytes,
                scale=scale,
                distance_scale=scale,
            )
            if curve.accesses > 0:
                ratio = n_acc / curve.accesses
                curve = MissCurve(
                    misses=curve.misses * ratio,
                    chunk_bytes=curve.chunk_bytes,
                    accesses=float(n_acc),
                    instructions=curve.instructions,
                )
            else:
                curve = MissCurve(
                    misses=np.full(prof.n_chunks + 1, float(n_acc)),
                    chunk_bytes=prof.chunk_bytes,
                    accesses=float(n_acc),
                    instructions=instr_per_interval,
                )
            curves.append(curve)
        out[int(rid)] = curves
    return out


class TestPerfProfiling:
    def test_perf_smoke_200k(self):
        """CI gate: vectorized must beat the reference on 200k accesses."""
        lines = _trace(200_000)
        t_vec, got = _best_of(lambda: stack_distances(lines))
        t_ref, want = _best_of(lambda: stack_distances_reference(lines))
        assert np.array_equal(got, want)
        _record_timings(
            "smoke_200k",
            vectorized_s=t_vec,
            reference_s=t_ref,
            speedup=t_ref / t_vec,
        )
        print(
            f"\n[perf] stack_distances 200k: vectorized {t_vec:.3f}s, "
            f"reference {t_ref:.3f}s, speedup {t_ref / t_vec:.1f}x"
        )
        assert t_vec < t_ref, (
            f"vectorized engine slower than reference: {t_vec:.3f}s "
            f">= {t_ref:.3f}s"
        )

    def test_perf_1m_speedup(self):
        """Headline number: 1M-access trace, targeting >= 10x.

        The hard assertion is a conservative 5x so shared/slow CI boxes
        don't flake; the measured speedup (~10x on a dedicated core) is
        printed for the bench log.
        """
        lines = _trace(1_000_000)
        t_vec, got = _best_of(lambda: stack_distances(lines))
        # best-of on both sides keeps the comparison symmetric; two
        # reference repeats bound the suite's wall time (it's ~4 s/run).
        t_ref, want = _best_of(
            lambda: stack_distances_reference(lines), repeats=2
        )
        assert np.array_equal(got, want)
        speedup = t_ref / t_vec
        _record_timings(
            "speedup_1m", vectorized_s=t_vec, reference_s=t_ref, speedup=speedup
        )
        print(
            f"\n[perf] stack_distances 1M: vectorized {t_vec:.3f}s, "
            f"reference {t_ref:.3f}s, speedup {speedup:.1f}x"
        )
        assert speedup >= 5.0, f"speedup regressed to {speedup:.1f}x"

    def test_perf_profiler_single_pass(self):
        """End-to-end profiler: one-pass engine vs per-region Fenwick."""
        n = 400_000
        lines = _trace(n)
        rng = np.random.default_rng(3)
        regions = rng.integers(0, 8, size=n).astype(np.int32)
        prof = StackDistanceProfiler(chunk_bytes=64 * 1024, n_chunks=64)
        t_vec, got = _best_of(
            lambda: prof.profile(lines, regions, 1e7, n_intervals=8)
        )
        t_ref, want = _best_of(
            lambda: _profile_reference(prof, lines, regions, 1e7, n_intervals=8),
            repeats=2,
        )
        assert sorted(got) == sorted(want)
        for rid in got:
            for c_got, c_want in zip(got[rid], want[rid]):
                assert np.array_equal(c_got.misses, c_want.misses)
        _record_timings(
            "single_pass_400k",
            single_pass_s=t_vec,
            reference_s=t_ref,
            speedup=t_ref / t_vec,
        )
        print(
            f"\n[perf] profile 400k x 8 regions x 8 intervals: "
            f"single-pass {t_vec:.3f}s, per-region reference {t_ref:.3f}s, "
            f"speedup {t_ref / t_vec:.1f}x"
        )
        assert t_vec < t_ref

    def test_perf_smoke_bookkeeping_share(self):
        """CI gate: ``profile()`` costs at most 2.2x its dominance sweep.

        2M accesses over a 2^17-line working set, four callpoint-sized
        region ids in runs, ``sample_shift`` 3, a 400-chunk grid and 8
        intervals.  The sweep is timed on the very stream ``profile()``
        builds: the sampled accesses grouped by region in stream order
        (a plain stable argsort here, the oracle of the engine's
        grouping), chained per region.
        """
        n = 2_000_000
        lines, regions, prof = _bookkeeping_case(n)
        prev, __ = _grouped_prev(prof, lines, regions)
        t_sweep, __ = _best_of(lambda: _distances_from_prev(prev), 5)
        t_profile, curves = _best_of(
            lambda: prof.profile(lines, regions, 4e7, n_intervals=8), 5
        )
        assert sorted(curves) == sorted(CALLPOINTS)
        assert sum(c.accesses for s in curves.values() for c in s) == n
        ratio = t_profile / t_sweep
        _record_timings(
            "bookkeeping_2m",
            profile_s=t_profile,
            sweep_s=t_sweep,
            bookkeeping_ratio=ratio,
        )
        print(
            f"\n[perf] profile 2M x 4 callpoints x 8 intervals: "
            f"{t_profile:.3f}s, dominance sweep {t_sweep:.3f}s, "
            f"ratio {ratio:.2f}x (ceiling {MAX_BOOKKEEPING_RATIO}x)"
        )
        assert ratio <= MAX_BOOKKEEPING_RATIO, (
            f"profile() bookkeeping grew to {ratio:.2f}x the dominance "
            f"sweep (ceiling {MAX_BOOKKEEPING_RATIO}x)"
        )

    def test_perf_smoke_sweep_speedup(self):
        """CI gate: the sweep is at least 1.3x the oracle sweep.

        On the bookkeeping gate's grouped stream (2M accesses, about 250K
        sampled), best of 5 on each side, with each run's distances
        checked against the oracle's outside the timed region.
        """
        lines, regions, prof = _bookkeeping_case(2_000_000)
        prev, starts = _grouped_prev(prof, lines, regions)
        want = distances_from_prev_reference(prev, starts)
        t_new = t_ref = float("inf")
        for __ in range(5):
            t_ref_run, ref = _best_of(
                lambda: distances_from_prev_reference(prev, starts), 1
            )
            t_new_run, got = _best_of(lambda: _distances_from_prev(prev), 1)
            assert np.array_equal(ref, want)
            assert np.array_equal(got, want)
            t_new, t_ref = min(t_new, t_new_run), min(t_ref, t_ref_run)
        speedup = t_ref / t_new
        _record_timings("sweep_2m", sweep_s=t_new, reference_s=t_ref, speedup=speedup)
        print(
            f"\n[perf] sweep, {len(prev)} sampled accesses: {t_new:.3f}s, "
            f"oracle {t_ref:.3f}s, speedup {speedup:.2f}x "
            f"(floor {MIN_SWEEP_SPEEDUP}x)"
        )
        assert speedup >= MIN_SWEEP_SPEEDUP, (
            f"sweep speedup over the oracle fell to {speedup:.2f}x "
            f"(floor {MIN_SWEEP_SPEEDUP}x)"
        )
