"""Developer tooling: static enforcement of the repo's conventions.

The reproduction's correctness rests on invariants that no test can see
directly — fingerprint field sets, bit-identity oracle pairings,
atomic-publish discipline, load-bearing instrumentation.  :mod:`repro.devtools.
lint` turns those conventions into machine-checked rules (``python -m
repro lint``), the way build infrastructures turn provenance conventions
into ``Package`` records: tooling, not tribal memory.
"""

from repro.devtools.lint import Finding, Rule, lint_paths

__all__ = ["Finding", "Rule", "lint_paths"]
