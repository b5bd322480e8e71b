"""Reading event logs back: replay, rollups, and the ``obs report`` text.

Everything here is pure post-processing over the ``.events.jsonl``
sidecar (or any list of event records): no live observability state is
touched, so reports can run long after — or on a different machine
than — the campaign that produced the log.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

from repro.obs.core import MetricRegistry

__all__ = [
    "format_report",
    "load_events",
    "percentile",
    "replay_metrics",
    "rollup",
    "span_durations",
]


def load_events(path: str | Path) -> list[dict]:
    """Parse an events sidecar, skipping corrupt lines.

    Crashed workers (``os._exit`` fault injection) can tear the final
    line of a concurrently-appended log; a replay must survive that,
    so undecodable lines are dropped rather than raised.
    """
    events: list[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(rec, dict):
                events.append(rec)
    return events


def replay_metrics(events: Iterable[dict]) -> MetricRegistry:
    """Rebuild a :class:`MetricRegistry` from metric event records.

    Feeding a log straight back through yields totals equal to the
    in-memory registry the run maintained — the Hypothesis suite pins
    this equivalence.
    """
    registry = MetricRegistry()
    for rec in events:
        if rec.get("kind") != "metric":
            continue
        registry.apply(
            str(rec.get("metric")),
            str(rec.get("name")),
            float(rec.get("value", 0.0)),
        )
    return registry


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty list."""
    if not values:
        raise ValueError("percentile of empty list")
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))  # ceil without float error
    return ordered[int(rank) - 1]


def span_durations(events: Iterable[dict]) -> dict[str, list[float]]:
    """Completed-span durations grouped by span name."""
    out: dict[str, list[float]] = {}
    for rec in events:
        if rec.get("kind") != "span-end":
            continue
        out.setdefault(str(rec.get("name", "?")), []).append(
            float(rec.get("dur_s", 0.0))
        )
    return out


def _job_fields(rec: dict) -> dict:
    fields = rec.get("fields")
    return fields if isinstance(fields, dict) else {}


def rollup(events: list[dict]) -> dict[str, Any]:
    """The aggregate view behind ``obs report`` and ``campaign status``.

    Returns a JSON-friendly dict with span stats, job outcomes (from
    the engine's lifecycle events), per-scheme duration percentiles,
    retry storms, cache ratios, and injected faults.
    """
    spans = span_durations(events)
    span_stats = {
        name: {
            "count": len(durs),
            "total_s": round(sum(durs), 6),
            "p50_s": round(percentile(durs, 50), 6),
            "p95_s": round(percentile(durs, 95), 6),
            "max_s": round(max(durs), 6),
        }
        for name, durs in spans.items()
    }

    registry = replay_metrics(events)

    completed = 0
    retried = 0
    quarantined = 0
    retries_by_key: dict[str, int] = {}
    scheme_durs: dict[str, list[float]] = {}
    faults: list[dict] = []
    for rec in events:
        kind = rec.get("kind")
        name = rec.get("name")
        fields = _job_fields(rec)
        if kind == "event":
            if name == "job.retry":
                retried += 1
                key = str(fields.get("key", "?"))
                retries_by_key[key] = retries_by_key.get(key, 0) + 1
            elif name == "job.quarantined":
                quarantined += 1
            elif name == "job.completed":
                completed += 1
                scheme = str(fields.get("scheme") or "?")
                scheme_durs.setdefault(scheme, []).append(
                    float(fields.get("elapsed_s", 0.0))
                )
            elif name == "fault.injected":
                faults.append(fields)

    schemes = {
        scheme: {
            "jobs": len(durs),
            "p50_s": round(percentile(durs, 50), 6),
            "p95_s": round(percentile(durs, 95), 6),
        }
        for scheme, durs in sorted(scheme_durs.items())
    }

    retry_storms = [
        {"key": key, "retries": n}
        for key, n in sorted(
            retries_by_key.items(), key=lambda kv: (-kv[1], kv[0])
        )
        if n >= 2
    ]

    counters = registry.counters
    cache_ratios: dict[str, float] = {}
    for base, hit_name, miss_name in (
        ("profile_cache", "profile_cache.hit", "profile_cache.miss"),
        ("store_mmap", "store.load.mmap", "store.load.npz_fallback"),
    ):
        hits = counters.get(hit_name, 0.0)
        misses = counters.get(miss_name, 0.0)
        if hits + misses > 0:
            cache_ratios[base] = round(hits / (hits + misses), 4)
    # Which tier served the profile-cache hits: the in-process memo, or
    # a payload read (store_mmap splits those).
    profile_hits = counters.get("profile_cache.hit", 0.0)
    if profile_hits > 0:
        cache_ratios["profile_memo"] = round(
            counters.get("profile_cache.memo", 0.0) / profile_hits, 4
        )

    return {
        "events": len(events),
        "spans": span_stats,
        "jobs": {
            "completed": completed,
            "retried": retried,
            "quarantined": quarantined,
        },
        "schemes": schemes,
        "retry_storms": retry_storms,
        "cache_hit_ratios": cache_ratios,
        "faults": {"injected": len(faults)},
        "metrics": registry.snapshot(),
    }


def format_report(summary: dict[str, Any], top: int = 10) -> str:
    """Render a rollup as the ``obs report --format text`` output."""
    lines: list[str] = []
    jobs = summary.get("jobs", {})
    lines.append(
        "events: {n}  jobs: {c} completed, {r} retried, {q} quarantined".format(
            n=summary.get("events", 0),
            c=jobs.get("completed", 0),
            r=jobs.get("retried", 0),
            q=jobs.get("quarantined", 0),
        )
    )
    faults = summary.get("faults", {}).get("injected", 0)
    if faults:
        lines.append(f"faults injected: {faults}")

    schemes = summary.get("schemes", {})
    if schemes:
        lines.append("per-scheme job duration:")
        for scheme, stats in schemes.items():
            lines.append(
                f"  {scheme}: {stats['jobs']} jobs, "
                f"p50 {stats['p50_s']:.4f}s, p95 {stats['p95_s']:.4f}s"
            )

    ratios = summary.get("cache_hit_ratios", {})
    if ratios:
        lines.append("cache hit ratios:")
        for name, ratio in sorted(ratios.items()):
            lines.append(f"  {name}: {ratio:.1%}")

    storms = summary.get("retry_storms", [])
    if storms:
        lines.append("retry storms (>=2 retries):")
        for storm in storms[:top]:
            lines.append(f"  {storm['key']}: {storm['retries']} retries")

    spans = summary.get("spans", {})
    if spans:
        lines.append(f"slowest spans (top {top} by total time):")
        ranked = sorted(
            spans.items(), key=lambda kv: -float(kv[1]["total_s"])
        )
        for name, stats in ranked[:top]:
            lines.append(
                f"  {name}: {stats['count']}x, total {stats['total_s']:.4f}s, "
                f"p95 {stats['p95_s']:.4f}s, max {stats['max_s']:.4f}s"
            )
    return "\n".join(lines)
