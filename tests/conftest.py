"""Fixtures shared by the unit tests."""

import pytest

from repro.sim import profiling


@pytest.fixture()
def store_env(tmp_path, monkeypatch):
    """A hermetic profile cache; returns the store root.

    Profiles go to an empty store under ``tmp_path``, never to the
    checkout's ``.repro_store/``.  The committed fixture pile is out of
    reach, and the per-process curve memo starts empty.
    """
    root = tmp_path / "store"
    monkeypatch.setenv("REPRO_STORE_DIR", str(root))
    monkeypatch.setattr(profiling, "_fixture_dir", lambda: None)
    monkeypatch.setattr(
        profiling, "_MEMO", profiling._CurveMemo(profiling._MEMO_BYTES)
    )
    return root
