"""Oracle pairing: every batched engine keeps its serial ground truth.

The repo's bit-identity discipline is: a vectorized engine may replace
a serial implementation only if the serial version is kept as an
independently-derived oracle under ``tests/oracles/`` and a test pins
the two bit-identical.  This rule makes the discipline mechanical.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.devtools.lint.base import (
    Finding,
    Project,
    Rule,
    register_rule,
)

__all__ = ["OraclePairingRule"]


@register_rule
class OraclePairingRule(Rule):
    """Public kernels with a batched engine must keep a serial oracle.

    A fast path replaces its slow one in ``src/``; the slow one moves to
    ``tests/oracles/``.  Every entry in ``invariants.toml``'s
    ``[[engine]]`` table names a kernel with its ``src/`` module, and
    its oracle with the oracle's own file (``reference_module``).  The
    rule checks three things: the kernel exists, the oracle still
    exists in its file, and at least one test or benchmark file other
    than the oracle modules references both names, each as a whole
    identifier — i.e. the bit-identity pin has not been quietly deleted
    (an oracle's own docstring naming its kernel is not a pin, and
    ``stack_distances_reference`` does not name ``stack_distances``).  Conversely, any public
    ``src/`` function that grows an ``engine=`` parameter must be
    registered in the manifest, so new engines cannot ship oracle-less.
    """

    id = "oracle-pairing"

    def check_project(self, project: Project) -> Iterator[Finding]:
        entries = project.manifest.get("engine", [])
        registered = {e["kernel"].split(".")[-1] for e in entries}
        oracle_files = {e["reference_module"] for e in entries}
        for entry in entries:
            yield from self._check_entry(project, entry, oracle_files)
        # Sweep src/ for unregistered engine= switches.
        for f in project.glob_sources("src"):
            if f.tree is None:
                continue
            for qual, node in self.functions(f.tree):
                name = qual.split(".")[-1]
                if name.startswith("_") or name in registered:
                    continue
                if self._has_engine_param(node):
                    yield self.finding(
                        f,
                        node.lineno,
                        f"public kernel {qual!r} takes an engine= switch "
                        "but is not registered in invariants.toml's "
                        "[[engine]] table; register it with its serial "
                        "reference oracle",
                    )

    # ------------------------------------------------------------------
    # Manifest entries
    # ------------------------------------------------------------------
    def _check_entry(
        self, project: Project, entry: dict, oracle_files: set[str]
    ) -> Iterator[Finding]:
        kernel = entry["kernel"]
        reference = entry["reference"]
        f = project.file(entry["module"])
        if f is None or f.tree is None:
            yield self.finding(
                entry["module"],
                1,
                f"engine module for kernel {kernel!r} is missing or "
                "unparseable",
            )
            return
        knode = dict(self.functions(f.tree)).get(kernel)
        if knode is None:
            yield self.finding(
                f,
                1,
                f"kernel {kernel!r} is registered in invariants.toml but "
                f"not defined in {entry['module']}",
            )
            return
        oracle = project.file(entry["reference_module"])
        if oracle is None or oracle.tree is None or reference not in dict(
            self.functions(oracle.tree)
        ):
            yield self.finding(
                f,
                knode.lineno,
                f"kernel {kernel!r} has no reference oracle: {reference!r} "
                f"is not defined in {entry['reference_module']} "
                "(renamed, moved or deleted?)",
            )
            return
        needles = (kernel.split(".")[-1], reference.split(".")[-1])
        if not self._has_test_pin(project, needles, oracle_files):
            yield self.finding(
                f,
                knode.lineno,
                f"no test or benchmark file references both "
                f"{needles[0]!r} and {needles[1]!r}; the bit-identity "
                "pin between the engine and its oracle is gone",
            )

    @staticmethod
    def _has_engine_param(
        node: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> bool:
        params = node.args.args + node.args.kwonlyargs
        return any(a.arg == "engine" for a in params)

    @staticmethod
    def _has_test_pin(
        project: Project, needles: tuple[str, str], oracle_files: set[str]
    ) -> bool:
        words = [re.compile(rf"\b{re.escape(n)}\b") for n in needles]
        for subdir in ("tests", "benchmarks"):
            for f in project.glob_sources(subdir):
                if f.rel not in oracle_files and all(
                    w.search(f.source) for w in words
                ):
                    return True
        return False
