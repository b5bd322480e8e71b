"""Every fast kernel keeps its serial oracle and a test that pins the two.

A vectorized or batched kernel may replace a serial implementation only
if the serial version stays under ``tests/oracles/`` and some test or
benchmark checks the two bit-identical.  ``oracles.PAIRS`` registers
each pair; these tests check that the registration still means
something: both sides resolve, a pin names both, every oracle is
registered, and no kernel in ``src/`` keeps an ``engine=`` switch
(the serial path lives in the oracle, not behind a flag).
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

from oracles import PAIRS

ROOT = Path(__file__).resolve().parents[1]
ORACLE_DIR = ROOT / "tests" / "oracles"


def _pin_sources() -> list[str]:
    """Every test and benchmark source outside the oracle package."""
    return [
        path.read_text(encoding="utf-8")
        for sub in ("tests", "benchmarks")
        for path in sorted((ROOT / sub).rglob("*.py"))
        if ORACLE_DIR not in path.parents
    ]


PIN_SOURCES = _pin_sources()
IDS = [pair[1] for pair in PAIRS]


@pytest.mark.parametrize("pair", PAIRS, ids=IDS)
def test_kernel_resolves(pair):
    module, qualname, __, __ = pair
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


@pytest.mark.parametrize("pair", PAIRS, ids=IDS)
def test_oracle_exists(pair):
    __, __, oracle_module, oracle = pair
    module = importlib.import_module(f"oracles.{oracle_module}")
    assert callable(getattr(module, oracle, None)), (
        f"{oracle} is gone from oracles/{oracle_module}.py (renamed, moved "
        "or deleted?)"
    )


@pytest.mark.parametrize("pair", PAIRS, ids=IDS)
def test_some_test_pins_kernel_to_oracle(pair):
    # Whole words: `foo_reference` does not name `foo`.
    names = (pair[1].split(".")[-1], pair[3])
    words = [re.compile(rf"\b{re.escape(name)}\b") for name in names]
    assert any(all(w.search(src) for w in words) for src in PIN_SOURCES), (
        f"no test or benchmark names both {names[0]} and {names[1]}: the "
        "bit-identity pin between the kernel and its oracle is gone"
    )


def test_every_oracle_is_registered():
    defined = {
        node.name
        for path in ORACLE_DIR.glob("*.py")
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and node.name.endswith("_reference")
    }
    assert defined == {pair[3] for pair in PAIRS}


def test_no_public_function_takes_an_engine_switch():
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            if not node.name.startswith("_") and any(
                a.arg == "engine" for a in params
            ):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno} {node.name}")
    assert not found, (
        f"public functions with an engine= switch: {found}; keep one fast "
        "path and register its serial oracle in oracles.PAIRS"
    )
