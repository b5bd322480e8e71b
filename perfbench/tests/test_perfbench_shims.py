"""Layer shims: self time under nesting, and loud failure on drift."""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import layershims as shims  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_excludes_nested_layers_and_counts_reentry_once():
    clock = FakeClock()
    lc = shims.LayerClock(clock)

    def partition():
        clock.now += 3.0

    partition = lc.wrap("curves.partition", partition)

    class Base:
        def decide(self):
            clock.now += 2.0
            partition()

    class Sub(Base):
        def decide(self):
            clock.now += 1.0
            super().decide()
            clock.now += 1.0

    Base.decide = lc.wrap("schemes.decide", Base.decide)
    Sub.decide = lc.wrap("schemes.decide", Sub.decide)
    Sub().decide()

    decide = lc.stats["schemes.decide"]
    assert decide.calls == 1  # Sub -> super() is one logical decide
    assert decide.total_s == 7.0
    assert decide.self_s == 4.0  # 1 + 2 + 1: partition's 3 s excluded
    assert lc.stats["curves.partition"].self_s == 3.0
    assert lc.stats["curves.partition"].calls == 1
    total_self = sum(s.self_s for s in lc.stats.values())
    assert total_self == clock.now


def test_real_decide_through_super_is_attributed_once(monkeypatch):
    """A subclass decide calling WhirlpoolScheme's (inherited Jigsaw) decide."""
    from repro.core.whirlpool import WhirlpoolScheme
    from repro.curves import MissCurve
    from repro.nuca import four_core_config
    from repro.schemes import JigsawScheme, VCSpec

    lc = shims.LayerClock()
    monkeypatch.setattr(
        JigsawScheme, "decide", lc.wrap("schemes.decide", JigsawScheme.decide)
    )

    class Tuned(WhirlpoolScheme):
        def decide(self, decide_curves):
            return super().decide(decide_curves)

    monkeypatch.setattr(Tuned, "decide", lc.wrap("schemes.decide", Tuned.decide))
    cfg = four_core_config()
    n = cfg.model_chunks
    curve = MissCurve(
        misses=np.linspace(1000.0, 10.0, n + 1),
        chunk_bytes=cfg.chunk_bytes,
        accesses=1000.0,
        instructions=1e6,
    )
    scheme = Tuned(cfg, [VCSpec(0, "a"), VCSpec(1, "b")])
    allocations = scheme.decide({0: curve, 1: curve})

    stat = lc.stats["schemes.decide"]
    assert set(allocations) == {0, 1}
    assert stat.calls == 1
    assert 0.0 < stat.self_s <= stat.total_s + 1e-9


def test_every_lookup_site_resolves_on_this_checkout():
    plan = shims.resolve()
    layers = {layer for layer, __, __ in plan.functions}
    layers |= {layer for layer, __, __ in plan.methods}
    assert {"schemes.decide", "schemes.account", "sim.profiling"} <= layers


def test_a_moved_function_fails_loudly(monkeypatch):
    monkeypatch.setattr(
        shims,
        "FUNCTIONS",
        [("sim.profiling", "repro.sim.profiling", "profile_vcs_renamed", ())],
    )
    with pytest.raises(shims.ShimError, match="profile_vcs_renamed"):
        shims.resolve()


def test_a_stale_lookup_site_fails_loudly(monkeypatch):
    monkeypatch.setattr(
        shims,
        "FUNCTIONS",
        [("sim.profiling", "repro.sim.profiling", "profile_vcs", ("repro.exp",))],
    )
    with pytest.raises(shims.ShimError, match="repro.exp.profile_vcs"):
        shims.resolve()


def test_a_renamed_method_fails_loudly(monkeypatch):
    monkeypatch.setattr(
        shims,
        "METHODS",
        [("online.push", "repro.core.whirltool.online", "OnlineWhirlTool", "push_epoch")],
    )
    with pytest.raises(shims.ShimError, match="push_epoch"):
        shims.resolve()
