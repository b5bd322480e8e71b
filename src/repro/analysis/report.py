"""Plain-text tables and result goldens for the benchmark harness."""

from __future__ import annotations

import difflib
import os
from pathlib import Path

import numpy as np

__all__ = ["format_table", "gmean", "write_result", "results_dir"]


def results_dir() -> Path:
    """Directory for benchmark outputs (override: $REPRO_RESULTS_DIR)."""
    root = os.environ.get("REPRO_RESULTS_DIR")
    if root:
        return Path(root)
    return Path(__file__).resolve().parents[3] / "benchmarks" / "results"


def format_table(headers: list[str], rows: list[list]) -> str:
    """Fixed-width text table."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)


def gmean(values) -> float:
    """Geometric mean."""
    arr = np.asarray(list(values), dtype=float)
    if len(arr) == 0:
        raise ValueError("gmean of empty sequence")
    if np.any(arr <= 0):
        raise ValueError("gmean requires positive values")
    return float(np.exp(np.mean(np.log(arr))))


def write_result(name: str, text: str) -> Path:
    """Check one experiment's output against its golden in benchmarks/results/.

    An absent golden is written.  A golden that differs raises
    ``ValueError`` with a unified diff and is left as it was; delete it
    and rerun its bench to regenerate it.
    """
    directory = results_dir()
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{name}.txt"
    text += "\n"
    if not path.exists():
        path.write_text(text)
    elif (golden := path.read_text()) != text:
        diff = difflib.unified_diff(
            golden.splitlines(True), text.splitlines(True), str(path), f"{name} (this run)"
        )
        raise ValueError(
            f"{path} differs from this run's output (delete it and rerun to "
            f"regenerate it):\n{''.join(diff)}"
        )
    return path
