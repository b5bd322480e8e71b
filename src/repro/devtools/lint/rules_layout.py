"""Fingerprint field sets, pinned as digests of their hash-update calls.

This rule guards an invariant that is *invisible* to the test suite
until a cached artifact silently goes stale: the exact input set of each
content fingerprint.
"""

from __future__ import annotations

import ast
import hashlib
from typing import Iterator

from repro.devtools.lint.base import (
    Finding,
    Project,
    Rule,
    register_rule,
)

__all__ = ["FingerprintVersionRule"]


def fingerprint_fields_digest(
    tree: ast.Module, functions: list[str], rule: Rule
) -> tuple[str, list[str]]:
    """Digest the hash-update argument set of the named functions.

    Collects every ``<hasher>.update(arg)`` argument inside the listed
    (qual-named) functions as normalized source text, and digests the
    sorted set — a stable key for "which fields feed this fingerprint".
    """
    wanted = set(functions)
    snippets: list[str] = []
    for qual, node in rule.functions(tree):
        if qual not in wanted:
            continue
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "update"
            ):
                for arg in sub.args:
                    snippets.append(ast.unparse(arg))
    h = hashlib.blake2b(digest_size=8)
    for snippet in sorted(snippets):
        h.update(snippet.encode())
        h.update(b"\x00")
    return h.hexdigest(), snippets


@register_rule
class FingerprintVersionRule(Rule):
    """Changing a fingerprint's input set requires a format-version bump.

    Every cached artifact is keyed by a content fingerprint; the set of
    fields feeding each hash is pinned in ``invariants.toml``
    (``[[fingerprint]]``, as a digest over the hash-update call
    arguments).  Adding, removing, or reordering an input changes what
    the key *means* — old cache entries would be served for new-format
    requests — so the change must land together with a bump of the
    format-version constant and a manifest re-pin.  PR 2's collision bug
    (v1 fingerprints sampled the trace) is exactly the class of bug this
    prevents from recurring silently.
    """

    id = "fingerprint-version"

    def check_project(self, project: Project) -> Iterator[Finding]:
        for entry in project.manifest.get("fingerprint", []):
            yield from self._check_entry(project, entry)

    def _check_entry(self, project: Project, entry: dict) -> Iterator[Finding]:
        name = entry["name"]
        f = project.file(entry["file"])
        if f is None or f.tree is None:
            yield self.finding(
                entry["file"],
                1,
                f"fingerprint {name!r}: file is missing or unparseable",
            )
            return
        digest, snippets = fingerprint_fields_digest(
            f.tree, list(entry["functions"]), self
        )
        if not snippets:
            yield self.finding(
                f,
                1,
                f"fingerprint {name!r}: no hash-update calls found in "
                f"{', '.join(entry['functions'])} (functions renamed? "
                "update invariants.toml)",
            )
            return
        version = self._version_const(
            project, entry["version_file"], entry["version_const"]
        )
        if version is None:
            yield self.finding(
                entry["version_file"],
                1,
                f"fingerprint {name!r}: version constant "
                f"{entry['version_const']!r} not found as a module-level "
                "integer assignment",
            )
            return
        pinned_digest = entry["fields_digest"]
        pinned_version = int(entry["version"])
        line = self._anchor_line(f.tree, list(entry["functions"]))
        if digest != pinned_digest and version == pinned_version:
            yield self.finding(
                f,
                line,
                f"fingerprint {name!r}: the hashed field set changed "
                f"(digest {digest}, pinned {pinned_digest}) but "
                f"{entry['version_const']} is still {version}; bump the "
                "format version and re-pin fields_digest in "
                "invariants.toml",
            )
        elif digest != pinned_digest:
            yield self.finding(
                f,
                line,
                f"fingerprint {name!r}: field set and version both "
                f"changed; re-pin invariants.toml (fields_digest = "
                f"{digest!r}, version = {version})",
            )
        elif version != pinned_version:
            yield self.finding(
                f,
                line,
                f"fingerprint {name!r}: {entry['version_const']} is "
                f"{version} but invariants.toml pins {pinned_version}; "
                "update the manifest to match",
            )

    @staticmethod
    def _version_const(
        project: Project, rel: str, const: str
    ) -> int | None:
        f = project.file(rel)
        if f is None or f.tree is None:
            return None
        for node in f.tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            else:
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id == const
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, int)
                ):
                    return int(node.value.value)
        return None

    def _anchor_line(self, tree: ast.Module, functions: list[str]) -> int:
        for qual, node in self.functions(tree):
            if qual in functions:
                return node.lineno
        return 1
