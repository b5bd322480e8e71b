"""Every script under ``examples/`` runs to completion.

Each example runs in its own interpreter with ``PYTHONPATH`` at the
package, from a scratch working directory, with the artifact store and
temp files under ``tmp_path``, so a run writes nothing into the checkout
and must leave its temp directory empty.
Several examples assert their own results (the online one, for
instance, that streaming equals the offline pipeline bit for bit).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


def test_examples_found():
    assert EXAMPLES


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script, tmp_path):
    tmp = tmp_path / "tmp"
    tmp.mkdir()
    env = dict(
        os.environ,
        PYTHONPATH=str(REPO / "src"),
        REPRO_STORE_DIR=str(tmp_path / "store"),
        TMPDIR=str(tmp),
    )
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-4000:]
    assert not list(tmp.iterdir())
