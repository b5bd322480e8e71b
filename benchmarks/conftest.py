"""Benchmark harness fixtures.

Every bench regenerates one of the paper's tables or figures, prints it,
and checks it against its golden under ``benchmarks/results/`` (written
when absent; a difference fails the bench).  Run with::

    pytest benchmarks/ --benchmark-only

Profiling results are cached on disk (``.profile_cache/``), so re-runs
are much faster than the first run.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))
# Perf smokes time fast paths against the test-side oracles (tests/oracles).
sys.path.append(str(Path(__file__).parents[1] / "tests"))

from repro.nuca import four_core_config, sixteen_core_config  # noqa: E402


@pytest.fixture(scope="session")
def cfg4():
    """The 4-core, 5x5-mesh chip (Fig 1)."""
    return four_core_config()


@pytest.fixture(scope="session")
def cfg16():
    """The 16-core, 9x9-mesh chip (Fig 12)."""
    return sixteen_core_config()


@pytest.fixture
def report():
    """Print an experiment's output and check it against its golden."""
    from repro.analysis import write_result

    def _report(name: str, text: str) -> None:
        print(f"\n=== {name} ===\n{text}")
        write_result(name, text)

    return _report


def once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
