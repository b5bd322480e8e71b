"""The invariants manifest: the pinned facts the rules check against.

``invariants.toml`` (shipped next to this module) is the single place
where the repo's cache-key and bit-identity invariants are written down
as data:

- ``[[engine]]`` — every public kernel with a vectorized/batched engine
  (``kernel`` in ``module`` under ``src/``), paired with the serial
  reference oracle it replaced (``reference`` in ``reference_module``
  under ``tests/oracles/``).  New ``engine=`` kernels must be registered
  here (the oracle-pairing rule fails otherwise).
- ``[[fingerprint]]`` — for each content fingerprint, the functions
  whose hash-update calls define its input field set, pinned as a
  digest, plus the format-version constant that must be bumped whenever
  that set changes.
- ``[atomic_publish]`` — the module prefixes where all final-artifact
  writes must flow through same-directory temp + ``os.replace``.

Fixture tests point the loader at scratch manifests, so every rule can
be exercised against synthetic trees.
"""

from __future__ import annotations

import tomllib
from pathlib import Path

__all__ = ["DEFAULT_MANIFEST", "load_manifest"]

#: The in-repo manifest shipped with the package.
DEFAULT_MANIFEST = Path(__file__).with_name("invariants.toml")


def load_manifest(path: str | Path | None = None) -> dict:
    """Load and structurally validate an invariants manifest."""
    path = Path(path) if path is not None else DEFAULT_MANIFEST
    with open(path, "rb") as f:
        data = tomllib.load(f)
    for eng in data.get("engine", []):
        for key in ("kernel", "module", "reference", "reference_module"):
            if key not in eng:
                raise ValueError(f"{path}: engine entry missing {key!r}")
    for fp in data.get("fingerprint", []):
        for key in (
            "name",
            "file",
            "functions",
            "version_file",
            "version_const",
            "version",
            "fields_digest",
        ):
            if key not in fp:
                raise ValueError(
                    f"{path}: fingerprint entry missing {key!r}"
                )
    return data
