"""Per-layer timing shims, installed from outside the program.

A traced run replaces each layer's public functions with a timing
wrapper at every place the function is looked up: the module that
defines it and every module that imported it by name.  Methods are
wrapped on the class that defines them, so subclasses that inherit a
method inherit the wrapper.

Each wrapper records calls and *self* time: the part of its duration
that no nested wrapper covers.  A layer re-entered through itself (a
subclass ``decide`` calling ``super().decide``) counts one call, and
its self time is still exclusive, so self times over all layers add up
to at most the wall time of the traced region.

A lookup site that no longer holds the function, or a class that no
longer defines the method, raises :class:`ShimError`: a rename in the
program must fail the traced run instead of reporting zeros.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable

#: (layer, defining module, function name, modules that import it by
#: name).  Every listed lookup site must hold the very same object.
FUNCTIONS = [
    (
        "workloads.build",
        "repro.workloads.registry",
        "build_workload",
        (
            "repro.workloads",
            "repro.exp.execute",
            "repro.workloads.mixes",
            "repro.core.whirltool.runtime",
        ),
    ),
    (
        "sim.profiling",
        "repro.sim.profiling",
        "profile_vcs",
        ("repro.sim", "repro.sim.driver", "repro.sim.multi"),
    ),
    (
        "store.load",
        "repro.store.profiles",
        "load_profile",
        ("repro.store", "repro.sim.profiling"),
    ),
    ("store.publish", "repro.store.profiles", "publish_profile", ("repro.store",)),
    (
        "curves.miss_curve.hull_prime",
        "repro.curves.miss_curve",
        "prime_hull_caches",
        ("repro.schemes.base", "repro.schemes.snuca"),
    ),
    (
        "curves.partition",
        "repro.curves.partition",
        "partition_cost_curves",
        ("repro.schemes.jigsaw", "repro.sim.parallel"),
    ),
    (
        "curves.combine.shared_misses",
        "repro.curves.combine",
        "shared_cache_misses",
        ("repro.schemes.snuca", "repro.sim.parallel"),
    ),
    (
        "curves.combine.flow_heads",
        "repro.curves.combine",
        "advance_flow_heads",
        ("repro.schemes.snuca",),
    ),
    (
        "sim.driver",
        "repro.sim.driver",
        "simulate",
        ("repro.sim", "repro.analysis.compare", "repro.sim.sweep"),
    ),
    ("sim.multi", "repro.sim.multi", "simulate_mix", ("repro.sim",)),
    ("exp.execute", "repro.exp.execute", "execute_job", ("repro.exp.runner",)),
    (
        "exp.engine",
        "repro.exp.engine",
        "run_jobs",
        ("repro.exp", "repro.exp.runner", "repro.sim.sweep"),
    ),
]

#: (layer, defining module, class, method).
METHODS = [
    ("curves.reuse.profile", "repro.curves.reuse", "StackDistanceProfiler", "profile"),
    (
        "core.whirltool.profile",
        "repro.core.whirltool.profiler",
        "WhirlToolProfiler",
        "profile",
    ),
    (
        "core.whirltool.cluster",
        "repro.core.whirltool.analyzer",
        "WhirlToolAnalyzer",
        "cluster",
    ),
    (
        "online.cluster_incremental",
        "repro.core.whirltool.analyzer",
        "WhirlToolAnalyzer",
        "cluster_incremental",
    ),
    ("ingest.stream.push", "repro.ingest.stream", "StreamingProfile", "push_chunk"),
    ("online.push", "repro.core.whirltool.online", "OnlineWhirlTool", "push"),
]

#: Scheme methods are wrapped on every class of the ``Scheme`` family
#: that defines them; these definitions must exist.
SCHEME_LAYERS = {"decide": "schemes.decide", "account_batch": "schemes.account"}
SCHEME_DEFINERS = [
    ("repro.schemes.base", "Scheme", "account_batch"),
    ("repro.schemes.jigsaw", "JigsawScheme", "decide"),
    ("repro.schemes.snuca", "SNUCAScheme", "decide"),
    ("repro.schemes.snuca", "SNUCAScheme", "account_batch"),
    ("repro.schemes.awasthi", "AwasthiScheme", "decide"),
    ("repro.schemes.idealspd", "IdealSPDScheme", "decide"),
]
SCHEME_MODULES = ["repro.core.whirlpool", "repro.schemes"]

#: Layers each workload must call (the benchmark's table of which layer
#: metric moves which end-to-end metric on which workload).  A layer on
#: this list that records no call fails the traced run.
EXPECTED = {
    "mixes": {
        "workloads.build",
        "sim.profiling",
        "store.load",
        "curves.reuse.profile",
        "core.whirltool.profile",
        "core.whirltool.cluster",
        "curves.miss_curve.hull_prime",
        "schemes.decide",
        "schemes.account",
        "curves.partition",
        "sim.multi",
        "exp.execute",
        "exp.engine",
    },
    "cold": {
        "workloads.build",
        "sim.profiling",
        "store.load",
        "store.publish",
        "curves.reuse.profile",
        "core.whirltool.profile",
        "core.whirltool.cluster",
        "curves.miss_curve.hull_prime",
        "schemes.decide",
        "schemes.account",
        "curves.partition",
        # shared_cache_misses serves only serial S-NUCA accounting and
        # the parallel simulator; the batched engine calls flow heads.
        "curves.combine.flow_heads",
        "sim.driver",
        "exp.execute",
        "exp.engine",
    },
    "online": {"ingest.stream.push", "online.push", "online.cluster_incremental"},
}

#: Counters the program emits through ``repro.obs`` that classify each
#: ``profile_vcs`` call by the tier that served it.
TIER_COUNTERS = {
    "computed": "profile_cache.miss",
    "store_mmap": "store.load.mmap",
    "fixture_npz": "store.load.npz_fallback",
}


class ShimError(RuntimeError):
    """A layer's public function is not where the benchmark expects it."""


@dataclass
class LayerStat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    items: int = 0


class LayerClock:
    """Calls, total and self time per layer, for one thread of calls."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: dict[str, LayerStat] = {}
        self._stack: list[list] = []  # [layer, time covered by children]
        self._depth: dict[str, int] = {}

    def reset(self) -> None:
        """Forget everything recorded so far (wrappers stay installed)."""
        self.stats = {name: LayerStat() for name in self.stats}

    def wrap(
        self,
        layer: str,
        fn: Callable,
        items: Callable[[tuple, dict], int] | None = None,
    ) -> Callable:
        """A wrapper of ``fn`` that charges its time to ``layer``."""
        self.stats.setdefault(layer, LayerStat())
        clock = self.clock
        stack = self._stack
        depth = self._depth

        def timed(*args, **kwargs):
            stat = self.stats[layer]
            outermost = depth.get(layer, 0) == 0
            depth[layer] = depth.get(layer, 0) + 1
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[layer] -= 1
                stat.self_s += dt - frame[1]
                if outermost:
                    stat.calls += 1
                    stat.total_s += dt
                    if items is not None:
                        stat.items += items(args, kwargs)
                if stack:
                    stack[-1][1] += dt

        timed.__wrapped__ = fn
        timed.__name__ = getattr(fn, "__name__", "timed")
        timed.__qualname__ = getattr(fn, "__qualname__", timed.__name__)
        return timed

    def wrapper_cost(self, n: int = 20000) -> float:
        """Seconds one wrapped call adds over a bare one (calibration)."""
        probe = LayerClock(self.clock)
        bare = _noop
        wrapped = probe.wrap("probe", _noop)
        t0 = time.perf_counter()
        for __ in range(n):
            bare()
        t_bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for __ in range(n):
            wrapped()
        t_wrapped = time.perf_counter() - t0
        return max(0.0, (t_wrapped - t_bare) / n)


def _noop() -> None:
    return None


def _replace_everywhere(original: Callable, replacement: Callable, name: str) -> int:
    """Rebind ``name`` in every loaded repro module that holds ``original``."""
    n = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        if vars(mod).get(name) is original:
            setattr(mod, name, replacement)
            n += 1
    return n


class Tiers:
    """Classifies each ``profile_vcs`` call by the tier that served it."""

    def __init__(self, registry) -> None:
        self.registry = registry
        self.counts = {tier: 0 for tier in TIER_COUNTERS}

    def reset(self) -> None:
        self.counts = {tier: 0 for tier in TIER_COUNTERS}

    def _snapshot(self) -> dict[str, float]:
        counters = self.registry.counters
        return {t: counters.get(c, 0.0) for t, c in TIER_COUNTERS.items()}

    def wrap(self, fn: Callable) -> Callable:
        def tiered(*args, **kwargs):
            before = self._snapshot()
            result = fn(*args, **kwargs)
            after = self._snapshot()
            for tier in ("computed", "store_mmap", "fixture_npz"):
                if after[tier] > before[tier]:
                    self.counts[tier] += 1
                    break
            return result

        tiered.__wrapped__ = fn
        return tiered


@dataclass
class Installed:
    clock: LayerClock
    tiers: Tiers
    registry: object

    def reset(self) -> None:
        self.clock.reset()
        self.tiers.reset()
        self.registry.counters.clear()


@dataclass
class Plan:
    """Resolved wrap targets: nothing is modified until :func:`install`."""

    functions: list[tuple[str, str, Callable]]  # (layer, name, original)
    methods: list[tuple[str, type, str]]  # (layer, class, method)


def resolve() -> Plan:
    """Check every lookup site and definition; raises ShimError on drift."""
    plan = Plan(functions=[], methods=[])
    for layer, module, name, lookups in FUNCTIONS:
        original = getattr(importlib.import_module(module), name, None)
        if not callable(original):
            raise ShimError(f"{module}.{name} is gone (layer {layer})")
        for site in lookups:
            held = getattr(importlib.import_module(site), name, None)
            if held is not original:
                raise ShimError(
                    f"{site}.{name} no longer resolves to {module}.{name} "
                    f"(layer {layer})"
                )
        plan.functions.append((layer, name, original))
    for layer, module, cls_name, method in METHODS:
        cls = getattr(importlib.import_module(module), cls_name, None)
        if cls is None or method not in vars(cls):
            raise ShimError(f"{module}.{cls_name}.{method} is gone (layer {layer})")
        plan.methods.append((layer, cls, method))
    for module in SCHEME_MODULES:
        importlib.import_module(module)
    for module, cls_name, method in SCHEME_DEFINERS:
        cls = getattr(importlib.import_module(module), cls_name, None)
        if cls is None or method not in vars(cls):
            raise ShimError(f"{module}.{cls_name}.{method} is gone")
    base = importlib.import_module("repro.schemes.base").Scheme
    for cls in [base, *_subclasses(base)]:
        for method, layer in SCHEME_LAYERS.items():
            fn = vars(cls).get(method)
            if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                plan.methods.append((layer, cls, method))
    return plan


def install() -> Installed:
    """Wrap every layer's public calls; raises ShimError on a missing site.

    Also turns ``repro.obs`` on with an in-memory registry and no sinks,
    to read the profile-tier counters the program already emits.
    """
    from repro import obs

    plan = resolve()
    registry = obs.MetricRegistry()
    obs.enable(sinks=[], registry=registry)
    clock = LayerClock()
    tiers = Tiers(registry)
    for layer, name, original in plan.functions:
        fn = tiers.wrap(original) if name == "profile_vcs" else original
        _replace_everywhere(original, clock.wrap(layer, fn), name)
    for layer, cls, method in plan.methods:
        items = (lambda a, k: len(a[1])) if layer == "curves.reuse.profile" else None
        setattr(cls, method, clock.wrap(layer, vars(cls)[method], items))
    return Installed(clock=clock, tiers=tiers, registry=registry)


def uncalled(installed: Installed, workload: str) -> list[str]:
    """Layers ``workload`` should call that recorded no call."""
    stats = installed.clock.stats
    return sorted(l for l in EXPECTED[workload] if stats[l].calls == 0)


def _subclasses(cls: type) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def layer_metrics(installed: Installed, wall_s: float) -> dict[str, float]:
    """The per-layer metrics of one traced pass (see BENCHMARK.json)."""
    stats = installed.clock.stats
    counters = installed.registry.counters
    tiers = installed.tiers.counts

    def calls(layer: str) -> int:
        return stats[layer].calls

    def self_s(layer: str) -> float:
        return stats[layer].self_s

    reuse = stats["curves.reuse.profile"]
    profiling_calls = calls("sim.profiling")
    attributed = sum(s.self_s for s in stats.values())
    wrapped_calls = sum(s.calls for s in stats.values())
    return {
        "workloads.build_calls": calls("workloads.build"),
        "workloads.build_s": self_s("workloads.build"),
        "sim.profiling.calls": profiling_calls,
        "sim.profiling.self_s": self_s("sim.profiling"),
        "sim.profiling.tier_store_mmap": tiers["store_mmap"],
        "sim.profiling.tier_fixture_npz": tiers["fixture_npz"],
        "sim.profiling.tier_computed": tiers["computed"],
        "sim.profiling.store_mmap_ratio": (
            tiers["store_mmap"] / profiling_calls if profiling_calls else 0.0
        ),
        "store.load_calls": calls("store.load"),
        "store.load_s": self_s("store.load"),
        "store.publish_calls": calls("store.publish"),
        "store.publish_s": self_s("store.publish"),
        "curves.reuse.profile_calls": reuse.calls,
        "curves.reuse.profile_s": reuse.self_s,
        "curves.reuse.accesses_per_s": (
            reuse.items / reuse.self_s if reuse.self_s > 0 else 0.0
        ),
        "core.whirltool.profile_s": self_s("core.whirltool.profile"),
        "core.whirltool.cluster_calls": calls("core.whirltool.cluster"),
        "core.whirltool.cluster_s": self_s("core.whirltool.cluster"),
        "curves.miss_curve.hull_prime_calls": calls("curves.miss_curve.hull_prime"),
        "curves.miss_curve.hull_prime_s": self_s("curves.miss_curve.hull_prime"),
        "curves.miss_curve.hull_share": (
            self_s("curves.miss_curve.hull_prime") / wall_s if wall_s > 0 else 0.0
        ),
        "schemes.decide_calls": calls("schemes.decide"),
        "schemes.decide_s": self_s("schemes.decide"),
        "schemes.account_calls": calls("schemes.account"),
        "schemes.account_s": self_s("schemes.account"),
        "curves.partition.calls": calls("curves.partition"),
        "curves.partition.s": self_s("curves.partition"),
        "curves.combine.shared_misses_s": self_s("curves.combine.shared_misses"),
        "curves.combine.flow_heads_s": self_s("curves.combine.flow_heads"),
        "sim.driver.self_s": self_s("sim.driver"),
        "sim.multi.self_s": self_s("sim.multi"),
        "exp.execute.self_s": self_s("exp.execute"),
        "exp.engine.overhead_s": self_s("exp.engine"),
        "ingest.stream.push_calls": calls("ingest.stream.push"),
        "ingest.stream.push_s": self_s("ingest.stream.push"),
        "online.push_self_s": self_s("online.push"),
        "online.cluster_incremental_calls": calls("online.cluster_incremental"),
        "online.cluster_incremental_s": self_s("online.cluster_incremental"),
        "online.recluster_full": counters.get("online.recluster.full", 0.0),
        "online.recluster_incremental": counters.get(
            "online.recluster.incremental", 0.0
        ),
        "trace.overhead_s": wrapped_calls * installed.clock.wrapper_cost(),
        "unattributed_s": wall_s - attributed,
        "attributed_share": attributed / wall_s if wall_s > 0 else 0.0,
    }
