"""Content-addressed artifact store (profiles, traces, provenance).

One store replaces the repo's two fingerprint-keyed file piles — the
profile cache and the registered-trace directory — with typed artifact
kinds, provenance sidecars, atomic publishes, zero-copy (memory-mapped)
reads, and ``python -m repro store`` maintenance commands.  See
:mod:`repro.store.artifacts` for the layout.
"""

from repro.store.artifacts import (
    ENV_STORE,
    KINDS,
    ArtifactStore,
    check_name,
    default_root,
    provenance_record,
)
from repro.store.mmapzip import MappedArchive, npz_arrays
from repro.store.profiles import load_profile, publish_profile
from repro.store.traces import publish_trace

__all__ = [
    "ENV_STORE",
    "KINDS",
    "ArtifactStore",
    "MappedArchive",
    "check_name",
    "default_root",
    "load_profile",
    "npz_arrays",
    "provenance_record",
    "publish_profile",
    "publish_trace",
]
