"""The benchmark's three workloads: inputs (set-up) and one timed pass.

Each scenario builds its inputs from the benchmark seed in its
constructor (the set-up phase), then :meth:`run` executes one pass and
returns one :class:`Op` per operation, with the operation's output for
the reference check.  Only ``repro``'s public API is used.

- ``mixes``: Fig 22's 4-core grid (12 compositions x 8 schemes) plus
  the first 16-core composition x 4 variants; train-scale apps with
  name-derived seeds, so the committed fixture pile serves every
  profile.  The compositions are the paper's (rng 42), so the seed
  changes nothing; a seeded job order was tried and dropped, because
  it moves first-use costs (workload builds, classifier training)
  between operations and shifts the operation percentiles by up to 30%.
- ``cold``: Fig 21's six schemes plus the ``whirltool:2`` cut on eight
  SPEC ref apps, at app seeds (from the benchmark seed) the pile does
  not hold, so every profile is computed and published to the (fresh)
  store.
- ``online``: ``OnlineWhirlTool`` over an unbounded ``IterableSource``
  replaying two SPEC ref traces back to back in fixed-size epochs; the
  seed relabels the callpoint ids.
"""

from __future__ import annotations

import resource
import time
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Seeded inputs come in this many variants (``seed % VARIANTS``), each
#: with committed reference outputs.
VARIANTS = 16

N_MIXES = 12
MIX_SCHEMES = ["Jigsaw", "Jigsaw-NoBypass", "Whirlpool", "Whirlpool-NoBypass"]
#: Fig 22b's other schemes run on the 4-core compositions only.
MIX_SCHEMES_4CORE = MIX_SCHEMES + ["S-NUCA/LRU", "S-NUCA/DRRIP", "IdealSPD", "Awasthi"]
#: 16-core compositions run per pass (a 16-core job costs ~1 s; the whole
#: 12-mix grid would not fit the run-time budget).
N_MIXES_16 = 1

#: Apps whose dense relabel table (4 B x (largest region id + 1)) stays
#: within COLD_TABLE_LIMIT bytes; the traced run re-derives this list.
COLD_APPS = ["bzip2", "zeusmp", "cactus", "soplex", "gems", "libqntm", "omnet", "astar"]
COLD_TABLE_LIMIT = 7 * 10**9
COLD_SEED_BASE = 1000
COLD_CUTS = ["whirltool:2"]

ONLINE_APPS = ["libqntm", "gems"]
ONLINE_RECORDS_PER_APP = 1_000_000
ONLINE_EPOCH_RECORDS = 20_000
ONLINE_APP_SEED = 0
#: Instructions each record stands for (the stream carries none).
ONLINE_INSTR_PER_RECORD = 4.0
ONLINE_N_POOLS = 3


class GuardError(RuntimeError):
    """The workload lost the character it was chosen for."""


@dataclass
class Op:
    label: str
    seconds: float
    error: str | None
    output: object
    probe_s: tuple[float, float] | None = None  # host-speed probes timed just before
    cpu_seconds: float = 0.0  # process CPU time (user + sys) of the operation


#: The host-speed probes (``probe.probe``), or None in traced passes.
Probe = Callable[[], tuple[float, float]] | None


def app_seed(name: str) -> int:
    """Fig 22's name-derived app seed (shares profiles across mixes)."""
    return zlib.crc32(name.encode()) % 1000


def current_rss_mb() -> float:
    """Resident set size now (not the peak), from /proc."""
    with open("/proc/self/statm") as f:
        pages = int(f.read().split()[1])
    return pages * resource.getpagesize() / 2**20


def relabel_table_bytes(app: str) -> int:
    """Bytes of ``relabel_regions``' dense table for one app's trace."""
    from repro.workloads import build_workload

    # Region ids are callpoint hashes, the same at train and ref scale.
    regions = build_workload(app, scale="train", seed=0).trace.regions
    return 4 * (int(regions.max()) + 1)


def _grid_ops(jobs: list[tuple[str, object]], probe: Probe) -> list[Op]:
    """Run (label, Job) pairs through the in-process campaign engine."""
    from repro.exp import MemoryStore
    from repro.exp import engine, execute

    seconds: dict[str, float] = {}
    cpu: dict[str, float] = {}
    probes: dict[str, tuple[float, float]] = {}
    clock, cpu_clock = time.perf_counter, time.process_time

    def timed_execute(job):
        if probe is not None:
            probes[job.key()] = probe()
        t0, c0 = clock(), cpu_clock()
        try:
            return execute.execute_job(job)
        finally:
            seconds[job.key()] = clock() - t0
            cpu[job.key()] = cpu_clock() - c0

    store = MemoryStore()
    report = engine.run_jobs(
        [job for __, job in jobs], timed_execute, store=store, workers=0, strict=False
    )
    ops = []
    for label, job in jobs:
        key = job.key()
        error = report.failures.get(key)
        output = None if error is not None else _summary(store.get(key))
        ops.append(
            Op(
                label,
                seconds.get(key, 0.0),
                error,
                output,
                probes.get(key),
                cpu.get(key, 0.0),
            )
        )
    return ops


def _summary(record: dict) -> dict:
    """The checked part of a job record: IPC(s), cycles and energy."""
    ipc = "ipcs" if "ipcs" in record else "ipc"
    return {ipc: record[ipc], "cycles": record["cycles"], "energy": record["energy"]}


def _profile_count() -> int:
    from repro.store import ArtifactStore

    return sum(1 for __ in ArtifactStore().artifacts("profiles"))


class Mixes:
    name = "mixes"
    n_variants = 1

    def __init__(self, seed: int, quick: bool) -> None:
        from repro.exp import Job
        from repro.workloads.registry import SPEC_APPS

        self.variant = 0
        self.jobs: list[tuple[str, Job]] = []
        grids = [(4, MIX_SCHEMES_4CORE, N_MIXES), (16, MIX_SCHEMES, N_MIXES_16)]
        if quick:
            grids = [(4, ["Jigsaw", "Whirlpool"], 2)]
        for n_cores, schemes, n_mixes in grids:
            rng = np.random.default_rng(42)
            for mix in range(n_mixes):
                names = [str(n) for n in rng.choice(SPEC_APPS, size=n_cores)]
                for scheme in schemes:
                    job = Job(
                        app="+".join(names),
                        scheme=scheme,
                        config="4core" if n_cores == 4 else "16core",
                        scale="train",
                        classifier="auto",
                        n_intervals=8,
                        kind="mix",
                        mix_seeds=tuple(app_seed(n) for n in names),
                    )
                    self.jobs.append((f"{n_cores}core/mix{mix:02d}/{scheme}", job))

    def run(self, probe: Probe) -> list[Op]:
        return _grid_ops(self.jobs, probe)

    def guard(self, tiers: dict | None) -> None:
        computed = _profile_count()
        if tiers is not None:
            computed = max(computed, tiers["computed"])
        if computed:
            raise GuardError(
                f"mixes computed {computed} profiles; the fixture pile "
                "must serve every one"
            )

    def final(self) -> None:
        return None

    def extra(self, traced: bool) -> dict:
        return {}


class Cold:
    name = "cold"
    n_variants = VARIANTS

    def __init__(self, seed: int, quick: bool) -> None:
        from repro.analysis import STANDARD_SCHEMES
        from repro.exp import Job

        self.variant = seed % VARIANTS
        app_seed_ = COLD_SEED_BASE + self.variant
        apps = COLD_APPS
        schemes = [
            (s, "whirltool:3" if s == "Whirlpool" else "single")
            for s in STANDARD_SCHEMES
        ] + [("Whirlpool", cut) for cut in COLD_CUTS]
        if quick:
            apps, schemes = ["gems"], [("LRU", "single"), ("Jigsaw", "single")]
        # Jobs stay grouped by app: the engine keeps only two ref traces.
        self.jobs = [
            (
                f"{app}/{scheme}/{classifier}",
                Job(app=app, scheme=scheme, seed=app_seed_, classifier=classifier),
            )
            for app in apps
            for scheme, classifier in schemes
        ]

    def run(self, probe: Probe) -> list[Op]:
        return _grid_ops(self.jobs, probe)

    def guard(self, tiers: dict | None) -> None:
        published = _profile_count()
        if not published:
            raise GuardError("cold published no profile to the store")
        if tiers is not None and not (tiers["computed"] and tiers["publish_calls"]):
            raise GuardError(f"cold computed/published nothing: {tiers}")

    def final(self) -> None:
        return None

    def extra(self, traced: bool) -> dict:
        host = {
            "cold_rule": "SPEC apps whose relabel table, 4 B x (largest region "
            f"id + 1), is at most {COLD_TABLE_LIMIT} B",
            "cold_apps": COLD_APPS,
        }
        if traced:
            from repro.workloads.registry import SPEC_APPS

            tables = {app: relabel_table_bytes(app) for app in SPEC_APPS}
            selected = [a for a in SPEC_APPS if tables[a] <= COLD_TABLE_LIMIT]
            if sorted(selected) != sorted(COLD_APPS):
                raise GuardError(
                    f"the relabel-table rule now selects {selected}, not {COLD_APPS}"
                )
            host["relabel_table_bytes"] = tables
        return {"host": host}


class Online:
    name = "online"
    n_variants = VARIANTS

    def __init__(self, seed: int, quick: bool) -> None:
        from repro.core.whirltool import OnlineWhirlTool
        from repro.ingest import IterableSource, TraceChunk
        from repro.workloads import build_workload

        self.variant = seed % VARIANTS
        # The seed relabels callpoint ids (XOR with a 31-bit mask, a
        # bijection on non-negative int32) instead of changing the
        # traces: seeded trace content moves noise-triggered re-clusters
        # to other epochs and the pass cost by up to 50%.
        mask = np.int32((self.variant * 0x9E3779B1) & 0x7FFFFFFF)
        n = ONLINE_RECORDS_PER_APP
        epoch = ONLINE_EPOCH_RECORDS
        parts = []
        for app in ONLINE_APPS:
            trace = build_workload(app, scale="ref", seed=ONLINE_APP_SEED).trace
            if len(trace) < n:
                raise GuardError(f"{app}'s ref trace has only {len(trace)} records")
            parts.append(
                (
                    np.ascontiguousarray(trace.lines[:n] * trace.line_bytes),
                    np.bitwise_xor(trace.regions[:n], mask),
                )
            )
        self.n_epochs = 12 if quick else len(ONLINE_APPS) * n // epoch

        def chunks():
            for addrs, regions in parts:
                for lo in range(0, n, epoch):
                    yield TraceChunk(addrs=addrs[lo : lo + epoch], regions=regions[lo : lo + epoch])

        self.source = IterableSource(chunks())
        self.tool = OnlineWhirlTool(
            epoch_records=epoch,
            instructions_per_record=ONLINE_INSTR_PER_RECORD,
            n_pools=ONLINE_N_POOLS,
        )
        self.tool.start(self.source)
        self._final = None
        self._ops: list[Op] = []
        self._rss: list[float] = []

    def run(self, probe: Probe) -> list[Op]:
        ops = []
        clock, cpu_clock = time.perf_counter, time.process_time
        chunks = self.source.chunks(ONLINE_EPOCH_RECORDS)
        for i in range(self.n_epochs):
            label = f"epoch{i:04d}"
            chunk = next(chunks)
            probe_s = probe() if probe is not None else None
            t0, c0 = clock(), cpu_clock()
            try:
                reports = self.tool.push(chunk)
            except Exception as exc:  # noqa: BLE001 - counted as a failed op
                dt, dc = clock() - t0, cpu_clock() - c0
                ops.append(Op(label, dt, repr(exc), None, probe_s, dc))
                continue
            dt, dc = clock() - t0, cpu_clock() - c0
            if len(reports) != 1:
                error = f"sealed {len(reports)} epochs"
                ops.append(Op(label, dt, error, None, probe_s, dc))
                continue
            r = reports[0]
            output = {"r": r.reclustered, "a": sorted((r.assignments or {}).items())}
            ops.append(Op(label, dt, None, output, probe_s, dc))
            if i == 10 or i == self.n_epochs - 1:
                self._rss.append(current_rss_mb())
        result = self.tool.finish()
        self._final = {
            "assignments": sorted(result.assignments(ONLINE_N_POOLS).items()),
            "merge_distances": [d for __, __, d in result.merges],
        }
        self._ops = ops
        return ops

    def guard(self, tiers: dict | None) -> None:
        incremental = [
            op for op in self._ops[1:] if op.output is not None and op.output["r"]
        ]
        if not incremental:
            raise GuardError("online never re-clustered after its first epoch")

    def final(self) -> dict | None:
        return self._final

    def extra(self, traced: bool) -> dict:
        growth = self._rss[-1] - self._rss[0] if len(self._rss) == 2 else 0.0
        return {"rss_growth_mb": growth}


SCENARIOS = {cls.name: cls for cls in (Mixes, Cold, Online)}
