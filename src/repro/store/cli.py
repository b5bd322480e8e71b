"""``python -m repro store`` — artifact-store maintenance commands.

- ``status`` — artifact counts and bytes per kind, name-index size.
- ``gc`` — remove staging temps, orphaned provenance, dead name
  bindings (never payloads); ``--dry-run`` reports without deleting.
- ``verify`` — every payload parses and matches its fingerprint key.
- ``compact`` — import the committed ``.profile_cache/`` pile and
  rewrite compressed payloads into the mappable layout.
"""

from __future__ import annotations

import argparse
import sys

from repro.store.artifacts import ENV_STORE, ArtifactStore, provenance_record

__all__ = ["cmd_store"]


def _fmt_bytes(n: int) -> str:
    size = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024 or unit == "GiB":
            return f"{size:.1f} {unit}" if unit != "B" else f"{n} B"
        size /= 1024
    return f"{n} B"


def _store_status(store: ArtifactStore) -> int:
    report = store.status()
    print(f"store root: {report['root']}")
    for kind, row in report["kinds"].items():
        print(
            f"  {kind}: {row['artifacts']} artifacts, "
            f"{_fmt_bytes(row['bytes'])}"
        )
    print(f"  names: {report['names']} bindings")
    return 0


def _store_gc(store: ArtifactStore, dry_run: bool) -> int:
    report = store.gc(dry_run=dry_run)
    verb = "would remove" if dry_run else "removed"
    for path in report["removed"]:
        print(f"  {verb} {path}")
    print(
        f"{verb} {len(report['removed'])} files, "
        f"{_fmt_bytes(report['reclaimed_bytes'])}"
    )
    for label in report["unprovenanced"]:
        print(f"  note: {label} has no provenance record (kept)")
    return 0


def _store_verify(store: ArtifactStore) -> int:
    report = store.verify()
    for label, reason in sorted(report["bad"].items()):
        print(f"BAD {label}: {reason}", file=sys.stderr)
    print(f"verified {len(report['ok'])} artifacts, {len(report['bad'])} bad")
    return 1 if report["bad"] else 0


def _store_compact(store: ArtifactStore, dry_run: bool) -> int:
    imported = _import_legacy(store, dry_run=dry_run)
    report = store.compact(dry_run=dry_run)
    verb = "would rewrite" if dry_run else "rewrote"
    for label in report["rewritten"]:
        print(f"  {verb} {label} as mappable")
    print(
        f"imported {imported} legacy artifacts, "
        f"{verb.replace('would ', '')} {len(report['rewritten'])} payloads"
        + (" (dry run)" if dry_run else "")
    )
    return 0


def _import_legacy(store: ArtifactStore, dry_run: bool) -> int:
    """Pull the committed profile pile's artifacts into the store."""
    from repro.sim import profiling

    n = 0
    legacy_profiles = profiling._fixture_dir()
    if legacy_profiles is not None:
        for path in sorted(legacy_profiles.glob("*.npz")):
            if path.name.startswith(".") or store.get("profiles", path.stem):
                continue
            n += 1
            print(f"  import profile {path.stem} <- {path}")
            if dry_run:
                continue
            store.publish_file(
                "profiles",
                path.stem,
                path,
                provenance=provenance_record(
                    "profiles",
                    path.stem,
                    builder="repro.store.cli.compact",
                    inputs={"legacy_path": str(path)},
                ),
            )
    return n


def cmd_store(args: argparse.Namespace) -> int:
    """Dispatch one ``repro store`` action."""
    store = ArtifactStore(args.root) if args.root else ArtifactStore()
    if args.action != "compact" and not store.root.is_dir():
        if args.action == "status":
            print(f"store root: {store.root} (empty)")
            return 0
        print(
            f"no store at {store.root} (set ${ENV_STORE} or pass --root)",
            file=sys.stderr,
        )
        return 2
    if args.action == "status":
        return _store_status(store)
    if args.action == "gc":
        return _store_gc(store, args.dry_run)
    if args.action == "verify":
        return _store_verify(store)
    return _store_compact(store, args.dry_run)
