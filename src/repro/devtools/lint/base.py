"""The rule framework: findings, rules, the registry, and suppression.

A rule is a class with an ``id``, a docstring (its rationale, printed by
``repro lint --explain``), and one or both hooks:

- :meth:`Rule.check_file` — called once per linted source file with its
  parsed AST (:class:`LintedFile`).
- :meth:`Rule.check_project` — called once per run with the whole
  :class:`Project`.  Project rules check repo-level invariants (pinned
  field sets, cross-file pairings) against the repository tree rooted
  at ``project.root``, independent of which paths were passed on the
  command line — so linting a single file still verifies the pins.

Findings on a line carrying ``# repro: noqa[rule-id]`` (or
``# repro: noqa[*]``) are suppressed; every suppression of a shipped
rule should carry a comment justifying why the finding is a false
positive.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "Finding",
    "LintedFile",
    "Project",
    "RULES",
    "Rule",
    "register_rule",
]

#: ``# repro: noqa[rule-id]`` / ``# repro: noqa[rule-a,rule-b]`` / ``[*]``.
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa\[([^\]]+)\]")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, anchored to a repo-relative file and line."""

    file: str
    line: int
    rule_id: str
    message: str

    def to_dict(self) -> dict[str, object]:
        """The JSON-output record (``repro lint --format json``)."""
        return {
            "file": self.file,
            "line": self.line,
            "rule": self.rule_id,
            "message": self.message,
        }


class LintedFile:
    """One parsed source file.

    Attributes:
        path: absolute path.
        rel: repo-relative POSIX path (the ``Finding.file`` key).
        source: file text.
        lines: source split into lines (1-indexed via ``lines[n - 1]``).
        tree: parsed AST, or ``None`` when the file does not parse (the
            runner reports a ``parse-error`` finding instead).
        noqa: line number -> set of suppressed rule ids on that line.
    """

    def __init__(self, path: Path, rel: str, source: str) -> None:
        self.path = path
        self.rel = rel
        self.source = source
        self.lines = source.splitlines()
        try:
            self.tree: ast.Module | None = ast.parse(source)
        except SyntaxError:
            self.tree = None
        self.noqa: dict[int, set[str]] = {}
        for n, line in enumerate(self.lines, 1):
            m = _NOQA_RE.search(line)
            if m:
                self.noqa[n] = {
                    rule.strip() for rule in m.group(1).split(",")
                }

    def suppressed(self, finding: Finding) -> bool:
        """Whether this file's noqa comments silence ``finding``."""
        ids = self.noqa.get(finding.line)
        return ids is not None and (finding.rule_id in ids or "*" in ids)


class Project:
    """The repository tree a lint run checks.

    ``files`` holds the explicitly linted files (the CLI's path
    arguments); project rules that need repo-wide context — test
    sources, pinned modules — load them on demand through :meth:`file`
    and :meth:`glob_sources`, cached, so the invariants they check do
    not depend on which paths were linted.
    """

    def __init__(self, root: Path, manifest: dict, files: list[LintedFile]):
        self.root = Path(root)
        self.manifest = manifest
        self.files = files
        self._cache: dict[str, LintedFile | None] = {
            f.rel: f for f in files
        }

    def file(self, rel: str) -> LintedFile | None:
        """Load a repo-relative source file (cached; None if missing)."""
        if rel in self._cache:
            return self._cache[rel]
        path = self.root / rel
        out: LintedFile | None = None
        if path.is_file():
            try:
                out = LintedFile(
                    path, rel, path.read_text(encoding="utf-8")
                )
            except (OSError, UnicodeDecodeError):
                out = None
        self._cache[rel] = out
        return out

    def glob_sources(self, subdir: str) -> list[LintedFile]:
        """All Python sources under ``root/subdir``, loaded via the cache."""
        base = self.root / subdir
        if not base.is_dir():
            return []
        out = []
        for path in sorted(base.rglob("*.py")):
            if any(part.startswith(".") for part in path.parts) or (
                "__pycache__" in path.parts
            ):
                continue
            f = self.file(path.relative_to(self.root).as_posix())
            if f is not None:
                out.append(f)
        return out


class Rule:
    """Base class every lint rule derives from.

    Subclasses set :attr:`id`, write their rationale as the class
    docstring, and override :meth:`check_file`, :meth:`check_project`,
    or both.
    """

    #: Stable kebab-case identifier (CLI ``--rules``, noqa brackets).
    id: str = ""

    def check_file(
        self, f: LintedFile, project: Project
    ) -> Iterator[Finding]:
        """Yield findings for one parsed file (default: none)."""
        return iter(())

    def check_project(self, project: Project) -> Iterator[Finding]:
        """Yield repo-level findings (default: none)."""
        return iter(())

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def finding(self, f: LintedFile | str, line: int, message: str) -> Finding:
        """Build a finding tagged with this rule's id."""
        rel = f if isinstance(f, str) else f.rel
        return Finding(file=rel, line=line, rule_id=self.id, message=message)

    @staticmethod
    def functions(
        tree: ast.Module,
    ) -> Iterator[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]]:
        """Yield ``(qualname, node)`` for every function in a module."""

        def walk(
            body: Iterable[ast.stmt], prefix: str
        ) -> Iterator[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]]:
            for node in body:
                if isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    qual = f"{prefix}{node.name}"
                    yield qual, node
                    yield from walk(node.body, f"{qual}.")
                elif isinstance(node, ast.ClassDef):
                    yield from walk(node.body, f"{prefix}{node.name}.")

        return walk(tree.body, "")


#: The rule registry: rule id -> rule class.
RULES: dict[str, type[Rule]] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to :data:`RULES`."""
    if not cls.id:
        raise ValueError(f"{cls.__name__} has no rule id")
    if cls.id in RULES:
        raise ValueError(f"duplicate rule id {cls.id!r}")
    RULES[cls.id] = cls
    return cls


def iter_rule_instances(
    only: Iterable[str] | None = None,
) -> list[Rule]:
    """Instantiate registered rules, optionally restricted to ``only``."""
    if only is None:
        ids = sorted(RULES)
    else:
        ids = list(only)
        unknown = [i for i in ids if i not in RULES]
        if unknown:
            raise ValueError(
                f"unknown rule ids: {', '.join(sorted(unknown))}; "
                f"known: {', '.join(sorted(RULES))}"
            )
    return [RULES[i]() for i in ids]


def call_name(node: ast.expr) -> str | None:
    """Dotted name of a call target (``np.savez`` -> "np.savez")."""
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return ".".join(reversed(parts))
    return None
