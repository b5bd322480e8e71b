"""Fixture tests for ``repro lint``: each rule against one violating and
one clean synthetic tree, plus suppression, output schema, and explain.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.devtools.lint import (
    RULES,
    Finding,
    explain_rule,
    format_json,
    format_text,
    lint_paths,
)

MANIFEST_HEADER = """\
[lint]
default_paths = ["src", "tests"]
"""


def make_tree(tmp_path, files, manifest=""):
    """Materialize a synthetic project and its invariants manifest."""
    root = tmp_path / "proj"
    root.mkdir(exist_ok=True)
    (root / "pyproject.toml").write_text("[project]\nname = 'x'\n")
    for rel, text in files.items():
        p = root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(text))
    mpath = root / "invariants.toml"
    mpath.write_text(MANIFEST_HEADER + textwrap.dedent(manifest))
    return root, mpath


def run(root, mpath, rules):
    return lint_paths(rules=rules, root=root, manifest_path=mpath)


# ----------------------------------------------------------------------
# oracle-pairing
# ----------------------------------------------------------------------
ORACLE_MANIFEST = """
[[engine]]
kernel = "fast_sum"
module = "src/kern.py"
reference = "fast_sum_reference"
reference_module = "tests/oracles/kern.py"
"""

ORACLE_OK = {
    "src/kern.py": """\
        def fast_sum(xs):
            return sum(xs)
        """,
    "tests/oracles/kern.py": """\
        def fast_sum_reference(xs):
            total = 0
            for x in xs:
                total += x
            return total
        """,
    "tests/test_kern.py": """\
        from kern import fast_sum
        from oracles.kern import fast_sum_reference

        def test_identical():
            assert fast_sum([1, 2]) == fast_sum_reference([1, 2])
        """,
}


def test_oracle_pairing_clean(tmp_path):
    root, m = make_tree(tmp_path, ORACLE_OK, ORACLE_MANIFEST)
    assert run(root, m, ["oracle-pairing"]) == []


def test_oracle_pairing_renamed_reference_fails(tmp_path):
    files = dict(ORACLE_OK)
    files["tests/oracles/kern.py"] = files["tests/oracles/kern.py"].replace(
        "fast_sum_reference", "fast_sum_oracle"
    )
    root, m = make_tree(tmp_path, files, ORACLE_MANIFEST)
    findings = run(root, m, ["oracle-pairing"])
    assert len(findings) == 1
    assert "no reference oracle" in findings[0].message
    assert findings[0].file == "src/kern.py"


def test_oracle_pairing_missing_test_pin_fails(tmp_path):
    files = {rel: ORACLE_OK[rel] for rel in ("src/kern.py", "tests/oracles/kern.py")}
    root, m = make_tree(tmp_path, files, ORACLE_MANIFEST)
    findings = run(root, m, ["oracle-pairing"])
    assert len(findings) == 1
    assert "no test or benchmark file references both" in findings[0].message


def test_oracle_pairing_oracle_docstring_is_not_a_pin(tmp_path):
    # The only file naming both the kernel and the oracle is the
    # oracle's own module, through its docstring.
    files = {
        "src/kern.py": ORACLE_OK["src/kern.py"],
        "tests/oracles/kern.py": '"""The oracle for kern.fast_sum."""\n\n'
        + textwrap.dedent(ORACLE_OK["tests/oracles/kern.py"]),
    }
    root, m = make_tree(tmp_path, files, ORACLE_MANIFEST)
    findings = run(root, m, ["oracle-pairing"])
    assert len(findings) == 1
    assert "no test or benchmark file references both" in findings[0].message


def test_oracle_pairing_oracle_name_alone_is_not_a_pin(tmp_path):
    # The kernel's name is a prefix of the oracle's: a test that uses
    # only the oracle does not pin the kernel.
    files = dict(ORACLE_OK)
    files["tests/test_kern.py"] = """\
        from oracles.kern import fast_sum_reference

        def test_oracle_alone():
            assert fast_sum_reference([1, 2]) == 3
        """
    root, m = make_tree(tmp_path, files, ORACLE_MANIFEST)
    findings = run(root, m, ["oracle-pairing"])
    assert len(findings) == 1
    assert "no test or benchmark file references both" in findings[0].message


def test_oracle_pairing_manifest_requires_reference_module(tmp_path):
    manifest = ORACLE_MANIFEST.replace(
        'reference_module = "tests/oracles/kern.py"\n', ""
    )
    root, m = make_tree(tmp_path, ORACLE_OK, manifest)
    with pytest.raises(ValueError, match="reference_module"):
        run(root, m, ["oracle-pairing"])


def test_oracle_pairing_unregistered_engine_kernel_fails(tmp_path):
    files = {
        "src/new.py": """\
            def shiny(xs, engine="batched"):
                return list(xs)
            """
    }
    root, m = make_tree(tmp_path, files, "")
    findings = run(root, m, ["oracle-pairing"])
    assert len(findings) == 1
    assert "not registered" in findings[0].message


# ----------------------------------------------------------------------
# atomic-publish
# ----------------------------------------------------------------------
ATOMIC_MANIFEST = """
[atomic_publish]
modules = ["src/repro/store"]
"""

ATOMIC_BAD = {
    "src/repro/store/sink.py": """\
        import os
        import shutil

        def save(path, data):
            with open(path, "w") as f:
                f.write(data)

        def move(src, dst):
            shutil.move(src, dst)
        """
}

ATOMIC_OK = {
    "src/repro/store/sink.py": """\
        import os

        def save(path, data):
            tmp = f".{path}.tmp"
            with open(tmp, "w") as f:
                f.write(data)
            os.replace(tmp, path)

        def append(path, line):
            with open(path, "a") as f:
                f.write(line)
        """
}


def test_atomic_publish_flags_truncating_writes(tmp_path):
    root, m = make_tree(tmp_path, ATOMIC_BAD, ATOMIC_MANIFEST)
    findings = run(root, m, ["atomic-publish"])
    assert len(findings) == 2
    messages = " | ".join(f.message for f in findings)
    assert "truncates a final path" in messages
    assert "shutil.move" in messages


def test_atomic_publish_accepts_staging_and_append(tmp_path):
    root, m = make_tree(tmp_path, ATOMIC_OK, ATOMIC_MANIFEST)
    assert run(root, m, ["atomic-publish"]) == []


def test_atomic_publish_ignores_out_of_scope_files(tmp_path):
    files = {"src/repro/other.py": ATOMIC_BAD["src/repro/store/sink.py"]}
    root, m = make_tree(tmp_path, files, ATOMIC_MANIFEST)
    assert run(root, m, ["atomic-publish"]) == []


# ----------------------------------------------------------------------
# fingerprint-version
# ----------------------------------------------------------------------
FP_SOURCE = """\
import hashlib

FORMAT_VERSION = 2

def _fingerprint(trace):
    h = hashlib.blake2b(digest_size=16)
    h.update(trace.lines.tobytes())
    h.update(f"v{FORMAT_VERSION}".encode())
    return h.hexdigest()
"""


def _pin_digest(root):
    import ast

    from repro.devtools.lint.base import Rule
    from repro.devtools.lint.rules_layout import fingerprint_fields_digest

    tree = ast.parse((root / "src/fp.py").read_text())
    digest, _ = fingerprint_fields_digest(tree, ["_fingerprint"], Rule())
    return digest


def fp_manifest(digest, version=2):
    return f"""
    [[fingerprint]]
    name = "t"
    file = "src/fp.py"
    functions = ["_fingerprint"]
    version_file = "src/fp.py"
    version_const = "FORMAT_VERSION"
    version = {version}
    fields_digest = "{digest}"
    """


def test_fingerprint_version_clean(tmp_path):
    root, _ = make_tree(tmp_path, {"src/fp.py": FP_SOURCE}, "")
    digest = _pin_digest(root)
    root, m = make_tree(
        tmp_path, {"src/fp.py": FP_SOURCE}, fp_manifest(digest)
    )
    assert run(root, m, ["fingerprint-version"]) == []


def test_fingerprint_field_change_without_bump_fails(tmp_path):
    root, _ = make_tree(tmp_path, {"src/fp.py": FP_SOURCE}, "")
    digest = _pin_digest(root)
    changed = FP_SOURCE.replace(
        "h.update(trace.lines.tobytes())",
        "h.update(trace.lines.tobytes())\n    h.update(trace.regions.tobytes())",
    )
    root, m = make_tree(
        tmp_path, {"src/fp.py": changed}, fp_manifest(digest)
    )
    findings = run(root, m, ["fingerprint-version"])
    assert len(findings) == 1
    assert "bump the format version" in findings[0].message


def test_fingerprint_field_change_with_bump_asks_for_repin(tmp_path):
    root, _ = make_tree(tmp_path, {"src/fp.py": FP_SOURCE}, "")
    digest = _pin_digest(root)
    changed = FP_SOURCE.replace("FORMAT_VERSION = 2", "FORMAT_VERSION = 3")
    changed = changed.replace(
        "h.update(trace.lines.tobytes())",
        "h.update(trace.lines.tobytes())\n    h.update(b'salt')",
    )
    root, m = make_tree(
        tmp_path, {"src/fp.py": changed}, fp_manifest(digest)
    )
    findings = run(root, m, ["fingerprint-version"])
    assert len(findings) == 1
    assert "re-pin" in findings[0].message
    # The message carries the new digest so re-pinning is mechanical.
    assert _pin_digest(root) in findings[0].message


# ----------------------------------------------------------------------
# packed-word-dtype
# ----------------------------------------------------------------------
PACKED_BAD = {
    "src/pack.py": """\
        import numpy as np

        def pack(order, counts):
            packed = order << 32 | counts
            return packed
        """
}

PACKED_OK = {
    "src/pack.py": """\
        import numpy as np

        BASE = 1 << 32

        def pack(order, counts):
            packed = order.astype(np.int64) << 32 | counts
            return packed

        def pack_named(order, counts):
            wide = order.astype(np.uint64)
            packed = wide << 32 | counts
            return packed
        """
}


def test_packed_word_dtype_flags_narrow_shift(tmp_path):
    root, m = make_tree(tmp_path, PACKED_BAD, "")
    findings = run(root, m, ["packed-word-dtype"])
    assert len(findings) == 1
    assert "not visibly 64-bit" in findings[0].message


def test_packed_word_dtype_accepts_wide_and_python_ints(tmp_path):
    root, m = make_tree(tmp_path, PACKED_OK, "")
    assert run(root, m, ["packed-word-dtype"]) == []


# ----------------------------------------------------------------------
# obs-span-pairing
# ----------------------------------------------------------------------
OBS_BAD = {
    "src/svc.py": """\
        from repro import obs

        def unentered(job):
            obs.span("engine.job", key=job)  # never entered

        def discarded(job):
            obs.start_span("submit", key=job)  # handle dropped

        def never_ended(job):
            handle = obs.start_span("submit", key=job)
            return handle
        """
}

OBS_OK = {
    "src/svc.py": """\
        from repro import obs

        def traced(job):
            with obs.span("engine.job", key=job):
                return 1

        def split(job):
            handle = obs.start_span("submit", key=job)
            handle.end(outcome="completed")
        """
}

OBS_MANIFEST = """
[obs]
instrumented = ["src/svc.py"]
"""


def test_obs_span_pairing_flags_broken_pairs(tmp_path):
    root, m = make_tree(tmp_path, OBS_BAD, "")
    findings = run(root, m, ["obs-span-pairing"])
    messages = " | ".join(f.message for f in findings)
    assert len(findings) == 3
    assert "outside a `with` statement" in messages
    assert "handle discarded" in messages
    assert "no handle .end()" in messages


def test_obs_span_pairing_clean(tmp_path):
    root, m = make_tree(tmp_path, OBS_OK, OBS_MANIFEST)
    assert run(root, m, ["obs-span-pairing"]) == []


def test_obs_span_pairing_bare_import_alias(tmp_path):
    files = {
        "src/svc.py": """\
            from repro.obs import span

            def unentered():
                span("x")
            """
    }
    root, m = make_tree(tmp_path, files, "")
    findings = run(root, m, ["obs-span-pairing"])
    assert len(findings) == 1
    assert "span(...) outside" in findings[0].message


def test_obs_manifest_flags_stripped_instrumentation(tmp_path):
    files = {"src/svc.py": "def f():\n    return 1\n"}
    root, m = make_tree(tmp_path, files, OBS_MANIFEST)
    findings = run(root, m, ["obs-span-pairing"])
    assert len(findings) == 1
    assert "no longer imports repro.obs" in findings[0].message


def test_obs_manifest_flags_missing_module(tmp_path):
    root, m = make_tree(tmp_path, {"src/other.py": "x = 1\n"}, OBS_MANIFEST)
    findings = run(root, m, ["obs-span-pairing"])
    assert len(findings) == 1
    assert "missing from the tree" in findings[0].message


# ----------------------------------------------------------------------
# suppression, schema, explain, framework
# ----------------------------------------------------------------------
def test_noqa_suppresses_specific_rule(tmp_path):
    files = {
        "src/pack.py": """\
            def pack(order, counts):
                packed = order << 32 | counts  # repro: noqa[packed-word-dtype]
                return packed
            """
    }
    root, m = make_tree(tmp_path, files, "")
    assert run(root, m, ["packed-word-dtype"]) == []


def test_noqa_star_suppresses_all_rules(tmp_path):
    files = {
        "src/pack.py": """\
            def pack(order, counts):
                return order << 32  # repro: noqa[*]
            """
    }
    root, m = make_tree(tmp_path, files, "")
    assert run(root, m, ["packed-word-dtype"]) == []


def test_noqa_other_rule_does_not_suppress(tmp_path):
    files = {
        "src/pack.py": """\
            def pack(order, counts):
                return order << 32  # repro: noqa[atomic-publish]
            """
    }
    root, m = make_tree(tmp_path, files, "")
    assert len(run(root, m, ["packed-word-dtype"])) == 1


def test_parse_error_reported_not_crashing(tmp_path):
    root, m = make_tree(tmp_path, {"src/broken.py": "def f(:\n"}, "")
    findings = run(root, m, None)
    assert [f.rule_id for f in findings] == ["parse-error"]


def test_json_schema(tmp_path):
    root, m = make_tree(tmp_path, PACKED_BAD, "")
    findings = run(root, m, ["packed-word-dtype"])
    doc = format_json(findings, root)
    assert doc["version"] == 1
    assert doc["root"] == str(root)
    assert doc["counts"] == {"packed-word-dtype": 1}
    (record,) = doc["findings"]
    assert set(record) == {"file", "line", "rule", "message"}
    assert record["file"] == "src/pack.py"
    assert isinstance(record["line"], int)
    json.dumps(doc)  # round-trips


def test_text_format(tmp_path):
    root, m = make_tree(tmp_path, PACKED_BAD, "")
    findings = run(root, m, ["packed-word-dtype"])
    text = format_text(findings)
    assert text.splitlines()[0].startswith(
        "src/pack.py:4: [packed-word-dtype]"
    )
    assert format_text([]) == "no findings"


def test_explain_prints_rationale():
    for rule_id in RULES:
        text = explain_rule(rule_id)
        assert text.startswith(f"{rule_id}:")
        assert len(text.splitlines()) > 1, rule_id
    with pytest.raises(ValueError, match="unknown rule id"):
        explain_rule("no-such-rule")


def test_unknown_rule_id_rejected(tmp_path):
    root, m = make_tree(tmp_path, {}, "")
    with pytest.raises(ValueError, match="unknown rule ids"):
        run(root, m, ["bogus"])


def test_findings_sort_stably():
    a = Finding("a.py", 2, "r", "m")
    b = Finding("a.py", 1, "r", "m")
    c = Finding("b.py", 1, "r", "m")
    assert sorted([c, a, b]) == [b, a, c]


def test_repo_tree_is_lint_clean():
    """The shipped tree must satisfy its own invariants."""
    repo = Path(__file__).resolve().parents[1]
    findings = lint_paths(root=repo)
    assert findings == [], format_text(findings)
