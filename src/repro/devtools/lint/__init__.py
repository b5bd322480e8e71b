"""repro lint: AST-based enforcement of the repo's invariants.

``python -m repro lint`` runs every registered rule over ``src/``,
``tests/``, and ``benchmarks/`` and exits non-zero on findings.  The
rules mechanize the conventions the reproduction's bit-identity story
depends on; each rule's ``--explain`` text records *why* the convention
exists.  Pinned facts (oracle pairings, fingerprint field sets) live
in :mod:`repro.devtools.lint.manifest`'s ``invariants.toml``.
"""

from repro.devtools.lint.base import (
    RULES,
    Finding,
    LintedFile,
    Project,
    Rule,
    iter_rule_instances,
    register_rule,
)
from repro.devtools.lint.manifest import DEFAULT_MANIFEST, load_manifest
from repro.devtools.lint.runner import (
    explain_rule,
    find_root,
    format_json,
    format_text,
    lint_paths,
)

# Importing the rule modules populates RULES via @register_rule.
from repro.devtools.lint import rules_arrays  # noqa: F401
from repro.devtools.lint import rules_layout  # noqa: F401
from repro.devtools.lint import rules_obs  # noqa: F401
from repro.devtools.lint import rules_oracle  # noqa: F401
from repro.devtools.lint import rules_writes  # noqa: F401

__all__ = [
    "DEFAULT_MANIFEST",
    "Finding",
    "LintedFile",
    "Project",
    "RULES",
    "Rule",
    "explain_rule",
    "find_root",
    "format_json",
    "format_text",
    "iter_rule_instances",
    "lint_paths",
    "load_manifest",
    "register_rule",
]
