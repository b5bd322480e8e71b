"""Array discipline: 64-bit packed words.

``pos << 32 | count`` packing must happen in an explicit 64-bit dtype.
Read-only payloads need no rule: every ``MissCurve`` stores a read-only
array and mapped archive members are ``ACCESS_READ`` views, so numpy
rejects an in-place write at runtime, through any alias.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.lint.base import (
    Finding,
    LintedFile,
    Project,
    Rule,
    register_rule,
)

__all__ = ["PackedWordDtypeRule"]


@register_rule
class PackedWordDtypeRule(Rule):
    """``pos << 32 | count`` packing must be an explicit 64-bit dtype.

    The reuse-profiling engines pack (position, count) pairs into single
    words as ``pos << 32 | count`` to sort both with one argsort.  If
    the left operand is an array in a 32-bit (or platform-default) int
    dtype, the shift silently overflows and unpacking produces garbage
    positions — a corruption that only shows up as subtly wrong miss
    curves.  Any array shift by a constant >= 32 must have a left
    operand that is visibly ``np.int64`` / ``np.uint64`` (an
    ``.astype(np.int64)`` at the shift site, or a name whose defining
    assignment spells the 64-bit dtype).  Pure-int shifts
    (``1 << 32``) are exempt: Python ints do not overflow.
    """

    id = "packed-word-dtype"

    def check_file(
        self, f: LintedFile, project: Project
    ) -> Iterator[Finding]:
        if f.tree is None:
            return
        assigns: list[tuple[int, str, str]] = []
        for node in ast.walk(f.tree):
            if isinstance(node, ast.Assign):
                snippet = ast.unparse(node.value)
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        assigns.append((node.lineno, target.id, snippet))
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    assigns.append(
                        (
                            node.lineno,
                            node.target.id,
                            ast.unparse(node.value),
                        )
                    )
        for node in ast.walk(f.tree):
            if not (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.LShift)
                and isinstance(node.right, ast.Constant)
                and isinstance(node.right.value, int)
                and node.right.value >= 32
            ):
                continue
            left = node.left
            if isinstance(left, ast.Constant):
                continue  # Python int: arbitrary precision, no overflow
            if self._is_64bit(left, node.lineno, assigns):
                continue
            yield self.finding(
                f,
                node.lineno,
                f"{ast.unparse(left)!r} << {node.right.value} packs into "
                "a word but the operand's dtype is not visibly 64-bit; "
                "cast with .astype(np.int64) (or np.uint64) at the shift "
                "site so a 32-bit input cannot silently overflow",
            )

    @staticmethod
    def _is_64bit(
        left: ast.expr, lineno: int, assigns: list[tuple[int, str, str]]
    ) -> bool:
        snippet = ast.unparse(left)
        if "int64" in snippet or "uint64" in snippet:
            return True
        if isinstance(left, ast.Name):
            best: str | None = None
            best_line = -1
            for aline, name, asnippet in assigns:
                if name == left.id and best_line < aline <= lineno:
                    best, best_line = asnippet, aline
            if best is not None and (
                "int64" in best or "uint64" in best
            ):
                return True
        return False
