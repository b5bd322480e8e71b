"""One shared writer for the perf-suite timings artifacts.

The seven ``benchmarks/test_perf_*`` modules that predate this writer
kept their timings their own way: six hand-rolled the same
load-merge-write JSON dance with six subtly different shapes, and the
profiling one printed its numbers and kept none.  They and every later
perf module (nine in all) now call :func:`record_timings`, which
writes one schema —

.. code-block:: json

    {
      "schema": "repro-obs-timings/1",
      "entries": {
        "<name>": {
          "metrics": {"<metric>": {"value": 1.5, "unit": "s"}},
          "gate": "speedup >= 5.0"
        }
      }
    }

— into the same gitignored per-suite filenames CI already uploads
(``perf_store_timings.json`` etc.), so the artifact plumbing is
untouched.  Entries merge across test runs within a file (each test
records its own named entry); a corrupt or pre-schema file is simply
replaced.  When observability is enabled each metric is also emitted
as a ``perf.timing`` event, so a traced benchmark run lands its
numbers in the events sidecar too.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Mapping, Union

from repro.obs import core as obs

__all__ = ["SCHEMA", "infer_unit", "record_timings"]

SCHEMA = "repro-obs-timings/1"

#: A metric is either a bare number (unit defaults to seconds) or an
#: explicit ``(value, unit)`` pair.
MetricValue = Union[float, tuple[float, str]]


def infer_unit(metric: str) -> str:
    """The unit a perf-suite metric name conventionally carries.

    The perf suites predate the shared schema and encode units in
    metric names (``*_s``, ``*_mb``, ``us_per_*``, ``speedup``); this
    keeps those names stable while the schema gains explicit units.
    """
    if metric.startswith("us_per") or metric.endswith("_us"):
        return "us"
    if metric.endswith("per_s"):
        return "MB/s" if "mb" in metric else "/s"
    if metric.endswith("_s") or metric == "seconds":
        return "s"
    if metric.endswith("_mb") or metric == "mb":
        return "MB"
    if metric == "speedup" or "ratio" in metric:
        return "x"
    return ""


def record_timings(
    path: str | Path,
    name: str,
    metrics: Mapping[str, MetricValue],
    gate: str | None = None,
) -> dict:
    """Merge one named entry into a timings artifact at ``path``.

    Args:
        path: the per-suite JSON artifact (existing filename kept).
        name: entry key, e.g. ``"smoke_48x16"``.
        metrics: metric name -> value (seconds) or ``(value, unit)``.
        gate: human-readable statement of the CI gate this entry is
            checked against, e.g. ``"speedup >= 5.0"``; None if the
            entry is informational only.

    Returns the entry dict that was written (mainly for tests).
    """
    artifact = Path(path)
    data: dict = {}
    if artifact.exists():
        try:
            loaded = json.loads(artifact.read_text())
        except json.JSONDecodeError:
            loaded = None
        if isinstance(loaded, dict) and loaded.get("schema") == SCHEMA:
            data = loaded
    entries = data.setdefault("entries", {})
    data["schema"] = SCHEMA

    entry: dict = {"metrics": {}}
    for metric, value in metrics.items():
        if isinstance(value, tuple):
            raw, unit = value
        else:
            raw, unit = value, "s"
        entry["metrics"][metric] = {"value": round(float(raw), 6), "unit": unit}
        obs.event(
            "perf.timing",
            entry=name,
            metric=metric,
            value=round(float(raw), 6),
            unit=unit,
        )
    if gate is not None:
        entry["gate"] = gate
    entries[name] = entry

    artifact.parent.mkdir(parents=True, exist_ok=True)
    artifact.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return entry
