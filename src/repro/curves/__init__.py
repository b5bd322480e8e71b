"""Cache modeling: miss-rate curves and the machinery built on them.

This package is the analytical heart of the reproduction.  Jigsaw (and
therefore Whirlpool) reasons about the cache exclusively through per-VC
miss-rate curves and an additive latency model (paper Sec 2.4); WhirlTool's
distance metric is defined through combined vs. partitioned miss curves
(paper Sec 4.2 and Appendix B).

Modules
-------
- :mod:`repro.curves.reuse` — stack-distance (reuse-distance) profiling:
  a vectorized batched Mattson engine and the address-sampled
  approximation.
- :mod:`repro.curves.miss_curve` — the :class:`MissCurve` container.
- :mod:`repro.curves.combine` — Appendix B / Listing 1 combined-curve model.
- :mod:`repro.curves.partition` — convex-hull capacity partitioning and
  partitioned miss curves.
- :mod:`repro.curves.latency` — end-to-end latency (data-stall CPI) curves.

Each kernel has one implementation here; the serial loops they replaced
are the oracles under ``tests/oracles/``, pinned bit-identical to them.
"""

from repro.curves.combine import combine_miss_curves, shared_cache_misses
from repro.curves.gmon import GMON, quantize_curve
from repro.curves.latency import LatencyModel, latency_curve
from repro.curves.miss_curve import MissCurve, interp_rows
from repro.curves.partition import (
    partition_capacity,
    partition_cost_curves,
    partitioned_miss_curve,
)
from repro.curves.reuse import (
    StackDistanceProfiler,
    miss_curve_from_distances,
    stack_distances,
)

__all__ = [
    "GMON",
    "quantize_curve",
    "LatencyModel",
    "MissCurve",
    "StackDistanceProfiler",
    "combine_miss_curves",
    "interp_rows",
    "latency_curve",
    "miss_curve_from_distances",
    "partition_capacity",
    "partition_cost_curves",
    "partitioned_miss_curve",
    "shared_cache_misses",
    "stack_distances",
]
