"""WhirlTool: automatic data classification from profiles (paper Sec 4).

Three components (Fig 14):

- :class:`WhirlToolProfiler` — tracks allocations by callpoint and
  records per-callpoint miss-rate curves at regular intervals.
- :class:`WhirlToolAnalyzer` — agglomeratively clusters callpoints into
  pools using the combined-vs-partitioned distance metric (Fig 15).
- :class:`WhirlToolClassifier` — the runtime: replaces the allocator's
  callpoint -> pool mapping, sending unprofiled callpoints to the
  process VC.

:func:`train_on` runs profiler and analyzer on an already-built
training run, once per run object (the merge tree is kept on the run,
so every pool count cuts the same tree); :func:`train_whirltool` builds
the training input first and cuts the tree.  These two are the only
training path.

The *online* variant (:mod:`repro.core.whirltool.online`) streams the
same pipeline over live traffic: :class:`OnlineWhirlTool` seals
profiling epochs as records arrive and re-clusters on
:class:`PhaseDetector` triggers, bit-identical at completion to the
offline pipeline on sized sources.
"""

from repro.core.whirltool.analyzer import (
    ClusteringResult,
    IncrementalClusterCache,
    WhirlToolAnalyzer,
)
from repro.core.whirltool.online import (
    EpochReport,
    OnlineWhirlTool,
    PhaseDetector,
)
from repro.core.whirltool.profiler import CallpointProfile, WhirlToolProfiler
from repro.core.whirltool.runtime import (
    WhirlToolClassifier,
    train_on,
    train_whirltool,
)

__all__ = [
    "CallpointProfile",
    "ClusteringResult",
    "EpochReport",
    "IncrementalClusterCache",
    "OnlineWhirlTool",
    "PhaseDetector",
    "WhirlToolAnalyzer",
    "WhirlToolClassifier",
    "WhirlToolProfiler",
    "train_on",
    "train_whirltool",
]
