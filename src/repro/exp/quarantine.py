"""Quarantine: poison jobs parked in a JSONL sidecar next to the store.

A job that exhausts its retry budget is *quarantined* rather than
retried forever: the engine appends an entry — job spec, full attempt
history (kind, error, elapsed seconds), interruption count, wall-clock
stamp — to ``<store-stem>.quarantine.jsonl`` beside the ResultStore.
Subsequent campaign submissions skip quarantined keys (they show up in
the report, not the pool), and ``python -m repro campaign quarantine
list|retry|clear`` inspects, re-executes, or drops them.

The file format follows the ResultStore's discipline: append-only JSON
lines, flushed + fsynced per append, last write wins on replay, and a
truncated trailing line from a killed writer is skipped and repaired on
the next append.  ``remove`` rewrites the file through
:func:`repro.store.artifacts.atomic_write` (fsynced temp sibling, then
``os.replace``), so a failed rewrite keeps the previous file and the
entries it holds; ``clear`` unlinks it.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

__all__ = ["Quarantine", "quarantine_path_for"]


def quarantine_path_for(store_path: str | Path) -> Path:
    """The sidecar path for a ResultStore path (``s.jsonl`` -> ``s.quarantine.jsonl``)."""
    path = Path(store_path)
    return path.with_name(f"{path.stem}.quarantine.jsonl")


class Quarantine:
    """Append-only sidecar of quarantined jobs (last write wins)."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._entries: dict[str, dict] = {}
        self._needs_newline = False
        if self.path.exists():
            self._replay()

    def _replay(self) -> None:
        raw = self.path.read_text(encoding="utf-8")
        self._needs_newline = bool(raw) and not raw.endswith("\n")
        for line in raw.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue  # truncated trailing line from a killed run
            key = entry.get("key")
            if key is None:
                continue
            self._entries[key] = entry

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self):
        """Quarantined job keys."""
        return self._entries.keys()

    def get(self, key: str, default=None):
        """The quarantine entry stored under ``key``, or ``default``."""
        return self._entries.get(key, default)

    def entries(self):
        """Iterate quarantine entries (dicts with key/job/attempts)."""
        return iter(self._entries.values())

    def add(
        self,
        key: str,
        job,
        attempts: list[dict],
        interruptions: int = 0,
    ) -> dict:
        """Quarantine one job with its attempt history; returns the entry."""
        job_dict = job.to_dict() if hasattr(job, "to_dict") else dict(job or {})
        entry = {
            "key": key,
            "job": job_dict,
            "attempts": [dict(a) for a in attempts],
            "interruptions": interruptions,
            "quarantined_at": time.time(),
        }
        line = json.dumps(entry, sort_keys=True)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            if self._needs_newline:
                fh.write("\n")
                self._needs_newline = False
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        self._entries[key] = entry
        return entry

    def remove(self, keys) -> int:
        """Drop entries by key, rewriting the sidecar atomically.

        The entries leave memory only once the file no longer holds
        them, so a failed rewrite leaves object and file agreeing.
        """
        doomed = {k for k in keys if k in self._entries}
        if not doomed:
            return 0
        survivors = [e for k, e in self._entries.items() if k not in doomed]
        if survivors:
            from repro.store.artifacts import atomic_write

            def write(tmp: Path) -> None:
                with open(tmp, "w", encoding="utf-8") as fh:
                    for entry in survivors:
                        fh.write(json.dumps(entry, sort_keys=True) + "\n")
                    fh.flush()
                    os.fsync(fh.fileno())

            atomic_write(self.path, write)
        else:
            self.path.unlink(missing_ok=True)
        for key in doomed:
            del self._entries[key]
        self._needs_newline = False
        return len(doomed)

    def clear(self) -> int:
        """Drop every entry; returns how many were removed."""
        n = len(self._entries)
        self._entries.clear()
        self.path.unlink(missing_ok=True)
        self._needs_newline = False
        return n
