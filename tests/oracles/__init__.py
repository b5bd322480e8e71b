"""Reference implementations that tests and perf smokes check fast paths against.

:data:`PAIRS` registers every fast kernel in ``src/`` with the serial
oracle it replaced; ``tests/test_oracle_pairing.py`` checks that each
pair still resolves and that some test or benchmark pins the two.
"""

#: ``(kernel module, kernel qualname, oracle module, oracle name)``; the
#: oracle module is relative to this package.
PAIRS = (
    ("repro.curves.reuse", "stack_distances", "reuse", "stack_distances_reference"),
    ("repro.curves.reuse", "_distances_from_prev", "reuse", "distances_from_prev_reference"),
    ("repro.curves.reuse", "_dominance_counts", "reuse", "dominance_counts_reference"),
    (
        "repro.curves.partition",
        "partition_cost_curves",
        "partition",
        "partition_cost_curves_reference",
    ),
    (
        "repro.curves.partition",
        "partitioned_miss_curve",
        "partition",
        "partitioned_miss_curve_reference",
    ),
    ("repro.curves.combine", "combine_miss_curves", "combine", "combine_miss_curves_reference"),
    ("repro.curves.combine", "shared_cache_misses", "combine", "shared_cache_misses_reference"),
    (
        "repro.core.whirltool.analyzer",
        "WhirlToolAnalyzer.cluster",
        "whirltool",
        "cluster_reference",
    ),
    (
        "repro.core.whirltool.analyzer",
        "WhirlToolAnalyzer.cluster_incremental",
        "whirltool",
        "cluster_reference",
    ),
    ("repro.core.whirltool.online", "OnlineWhirlTool.run", "online", "online_pools_reference"),
    ("repro.schemes.base", "Scheme.step_batch", "schemes", "step_batch_reference"),
    ("repro.schemes.placement", "greedy_placement", "placement", "greedy_placement_reference"),
    ("repro.schemes.placement", "trading_placement", "placement", "trading_placement_reference"),
)
