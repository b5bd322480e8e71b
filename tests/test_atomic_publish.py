"""Crash-safety of publish paths: a failed write never leaves a final
artifact, and whatever residue a crash can leave is exactly what
``store gc`` removes.

Every final file under ``repro.store`` and ``repro.exp`` is written
through :func:`repro.store.artifacts.atomic_write`.  These tests inject
a failure at each stage of each publish path: a site that wrote its
final path in place would leave a partial file, or would never reach
the failing ``os.replace``.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from repro.curves.miss_curve import MissCurve
from repro.exp.campaign import Campaign
from repro.exp.mixes import MixCampaign
from repro.exp.quarantine import Quarantine
from repro.ingest.pipeline import convert_to_rtrace
from repro.ingest.source import ArraySource
from repro.store.artifacts import ArtifactStore
from repro.store.profiles import publish_profile


class Boom(RuntimeError):
    pass


def _store(tmp_path: Path) -> ArtifactStore:
    return ArtifactStore(tmp_path / "store")


def _tree_files(root: Path) -> list[str]:
    return sorted(
        p.relative_to(root).as_posix()
        for p in root.rglob("*")
        if p.is_file()
    )


# ----------------------------------------------------------------------
# ArtifactStore.publish
# ----------------------------------------------------------------------
def test_crashed_publish_leaves_no_final_artifact(tmp_path):
    store = _store(tmp_path)
    fp = "deadbeefdeadbeef"

    def write(tmp: Path) -> None:
        tmp.write_bytes(b"partial")  # bytes hit the staging file...
        raise Boom("crash before os.replace")

    with pytest.raises(Boom):
        store.publish("profiles", fp, write)
    # The final path never appeared, and the staging temp was reclaimed
    # by publish's own cleanup — the store tree holds no residue at all.
    assert store.get("profiles", fp) is None
    assert _tree_files(store.root) == []


def test_crashed_publish_before_provenance_is_still_usable(tmp_path):
    store = _store(tmp_path)
    fp = "feedfacefeedface"
    store.publish("profiles", fp, lambda tmp: tmp.write_bytes(b"payload"))
    # Payload lands before (independently of) the sidecar: an artifact
    # is usable the instant it exists, and gc keeps unprovenanced
    # payloads (reported, never reclaimed).
    report = store.gc()
    assert report["removed"] == []
    assert f"profiles/{fp}" in report["unprovenanced"]
    assert store.get("profiles", fp) is not None


def test_gc_removes_crash_residue_only(tmp_path):
    store = _store(tmp_path)
    fp = "0123456789abcdef"
    curves = {
        0: [
            MissCurve(
                misses=np.array([4.0, 2.0, 1.0]),
                chunk_bytes=4096,
                accesses=4.0,
                instructions=100.0,
            )
        ]
    }
    publish_profile(
        store,
        fp,
        curves,
        provenance={"kind": "profiles", "fingerprint": fp},
    )
    dst = store.path("profiles", fp)
    # Hand-craft the residue a kill -9 between write() and os.replace
    # could leave: a dot-temp next to the artifact and staging litter.
    residue_sibling = dst.parent / f".{dst.name}.{os.getpid()}.tmp"
    residue_sibling.write_bytes(b"partial")
    staging = store.root / "tmp"
    staging.mkdir(parents=True, exist_ok=True)
    (staging / "upload.partial").write_bytes(b"x" * 10)

    dry = store.gc(dry_run=True)
    assert len(dry["removed"]) == 2
    assert residue_sibling.exists(), "dry run must not delete"

    report = store.gc()
    assert sorted(report["removed"]) == sorted(dry["removed"])
    assert not residue_sibling.exists()
    assert not (staging / "upload.partial").exists()
    # The published artifact and its sidecar survived.
    assert store.get("profiles", fp) == dst
    assert store.provenance("profiles", fp) is not None
    assert store.verify()["bad"] == {}


# ----------------------------------------------------------------------
# convert_to_rtrace
# ----------------------------------------------------------------------
class _FailingSource(ArraySource):
    """Yields one good chunk, then dies mid-stream."""

    def chunks(self, max_records=1):
        it = super().chunks(max_records)
        yield next(it)
        raise Boom("stream died")


def test_convert_to_rtrace_midstream_failure_unlinks_dst(tmp_path):
    addrs = np.arange(8, dtype=np.int64) * 64
    regions = np.zeros(8, dtype=np.int32)
    source = _FailingSource(addrs, regions, instructions=100.0)
    dst = tmp_path / "out.rtrace"
    with pytest.raises(Boom):
        convert_to_rtrace(source, dst, max_records=1)
    assert not dst.exists(), "partial archive must not survive the crash"


# ----------------------------------------------------------------------
# Rewrites of an existing final file
# ----------------------------------------------------------------------
def _spec_save(spec):
    def setup(root: Path):
        path = root / "spec.json"
        spec.save(path)
        return path, lambda: spec.save(path)

    return setup


def _quarantine_remove(root: Path):
    quarantine = Quarantine(root / "s.quarantine.jsonl")
    quarantine.add("a", None, [])
    quarantine.add("b", None, [])
    return quarantine.path, lambda: quarantine.remove(["a"])


def _provenance_sidecar(root: Path):
    store = ArtifactStore(root / "store")
    fp = "cafebabecafebabe"

    def publish(round_: int) -> None:
        store.publish(
            "profiles",
            fp,
            lambda tmp: tmp.write_bytes(b"payload"),
            provenance={"round": round_},
        )

    publish(1)
    return store.meta_path("profiles", fp), lambda: publish(2)


@pytest.mark.parametrize(
    "setup",
    [
        _spec_save(Campaign(name="c")),
        _spec_save(MixCampaign(name="m")),
        _quarantine_remove,
        _provenance_sidecar,
    ],
    ids=["campaign", "mix-campaign", "quarantine-remove", "provenance-sidecar"],
)
def test_spec_save_failure_preserves_previous_file(
    tmp_path, monkeypatch, setup
):
    path, rewrite = setup(tmp_path)
    before = path.read_text()
    files = _tree_files(tmp_path)
    real_replace = os.replace

    def exploding_replace(src, dst):
        if Path(dst) == path:
            raise Boom("no replace")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", exploding_replace)
    with pytest.raises(Boom):
        rewrite()
    # The previous file is intact and the staging temp was cleaned up.
    assert path.read_text() == before
    assert _tree_files(tmp_path) == files
