"""Reporting helpers for the benchmark harness.

- :mod:`repro.analysis.report` — plain-text table formatting and result
  goldens (every figure/table bench checks its output against a file
  under ``benchmarks/results/``, written when absent).
- :mod:`repro.analysis.placement_map` — ASCII placement maps (Figs 3-5).
- :mod:`repro.analysis.compare` — run a workload under the paper's full
  scheme comparison set.
"""

from repro.analysis.compare import (
    STANDARD_SCHEMES,
    resolve_classifier,
    run_scheme,
    run_schemes,
)
from repro.analysis.placement_map import placement_map
from repro.analysis.report import format_table, gmean, write_result

__all__ = [
    "STANDARD_SCHEMES",
    "format_table",
    "gmean",
    "placement_map",
    "resolve_classifier",
    "run_scheme",
    "run_schemes",
    "write_result",
]
