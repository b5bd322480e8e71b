"""Workload-synthesis micro-benchmark: the block Zipf replay.

Same contract as the other perf smokes: a CI gate with a conservative
floor so slow runners don't flake, plus timings written as JSON
(``benchmarks/perf_workloads_timings.json``, gitignored) for the CI
artifact upload.  ``zipf_draws`` replays ``Generator.zipf``'s scalar
rejection loop in blocks of array operations, with the same values
and generator state; before it, ``Generator.zipf`` was about half of
building a SPEC trace.
"""

import time
from pathlib import Path

import numpy as np

from repro.obs.timings import record_timings
from repro.workloads.patterns import zipf_draws

ALPHA = 1.4
DRAWS = 300_000
SEED = 2016
#: CI floor for zipf_draws over Generator.zipf, best of 5 per side.  On
#: a 2-vCPU AVX-512 host (numpy 2.4) it reads 2.7-3.4x; hosts without
#: SVML, where ``np.power`` is libm's ``pow``, are unmeasured.
MIN_SPEEDUP = 1.3

TIMINGS_PATH = Path(__file__).parent / "perf_workloads_timings.json"


def _timed(draw):
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    out = draw(rng)
    return time.perf_counter() - t0, out, rng.bit_generator.state


def test_perf_smoke_zipf_replay():
    """CI gate: ``zipf_draws`` is at least 1.3x ``Generator.zipf``.

    Each run's draws and final generator state are checked against
    numpy's outside the timed region.
    """
    t_new = t_ref = float("inf")
    for __ in range(5):
        t_ref_run, want, want_state = _timed(lambda r: r.zipf(ALPHA, size=DRAWS))
        t_new_run, got, got_state = _timed(lambda r: zipf_draws(r, ALPHA, DRAWS))
        assert np.array_equal(got, want)
        assert got_state == want_state
        t_new, t_ref = min(t_new, t_new_run), min(t_ref, t_ref_run)
    speedup = t_ref / t_new
    record_timings(
        TIMINGS_PATH,
        "zipf_replay_300k",
        {
            "zipf_draws_s": t_new,
            "generator_zipf_s": t_ref,
            "speedup": (speedup, "x"),
        },
        gate=f"speedup >= {MIN_SPEEDUP}x",
    )
    print(
        f"\n[perf] zipf_draws, {DRAWS} draws at alpha {ALPHA}: {t_new:.4f}s, "
        f"Generator.zipf {t_ref:.4f}s, speedup {speedup:.2f}x "
        f"(floor {MIN_SPEEDUP}x)"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"zipf_draws speedup over Generator.zipf fell to {speedup:.2f}x "
        f"(floor {MIN_SPEEDUP}x)"
    )
