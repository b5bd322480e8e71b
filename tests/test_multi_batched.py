"""Differential tests: batched stepping vs one interval at a time.

``simulate`` / ``simulate_mix`` step their scheme through
``Scheme.step_batch`` (decide per interval, account the whole run as
stacked arrays).  Each case runs the same simulation a second time with
``step_batch`` replaced by ``step_batch_reference``, a ``scheme.step``
loop over the intervals; no scheme overrides ``step_batch``, so patching
it on ``Scheme`` covers every scheme.  The two must produce *exact*
``SchemeResult`` / ``MixResult`` equality — dataclass equality covers
every accumulated total, per-interval ``IntervalStats`` (history), per-VC
dicts, and energy breakdowns.
"""

import pytest
from oracles.schemes import step_batch_reference

from repro.core.whirlpool import WhirlpoolScheme
from repro.nuca import four_core_config
from repro.schemes import (
    AwasthiScheme,
    IdealSPDScheme,
    JigsawScheme,
    ManualPoolClassifier,
    SNUCAScheme,
    SingleVCClassifier,
)
from repro.schemes.base import Scheme
from repro.sim import simulate, simulate_mix
from repro.workloads import build_workload

FACTORIES = {
    "Jigsaw": JigsawScheme,
    "Jigsaw-NoBypass": lambda c, v: JigsawScheme(c, v, bypass=False),
    "Whirlpool": lambda c, v: WhirlpoolScheme(c, v),
    "S-NUCA/LRU": lambda c, v: SNUCAScheme(c, v, "lru"),
    "S-NUCA/DRRIP": lambda c, v: SNUCAScheme(c, v, "drrip"),
    "IdealSPD": IdealSPDScheme,
    "Awasthi": AwasthiScheme,
}


@pytest.fixture(scope="module")
def cfg():
    return four_core_config()


@pytest.fixture(scope="module")
def mix2():
    return [
        build_workload("bzip2", scale="train", seed=0),
        build_workload("mcf", scale="train", seed=1),
    ]


@pytest.fixture(scope="module")
def mix4():
    return [
        build_workload("milc", scale="train", seed=2),
        build_workload("soplex", scale="train", seed=3),
        build_workload("astar", scale="train", seed=4),
        build_workload("libqntm", scale="train", seed=5),
    ]


def batched_and_serial(run, monkeypatch):
    """``run()`` as shipped, then with ``step_batch`` stepping serially."""
    batched = run()
    with monkeypatch.context() as patch:
        patch.setattr(Scheme, "step_batch", step_batch_reference)
        serial = run()
    return batched, serial


def assert_mix_equal(a, b):
    assert a.scheme_name == b.scheme_name
    assert len(a.per_app) == len(b.per_app)
    for ra, rb in zip(a.per_app, b.per_app):
        assert ra == rb  # dataclass equality: totals + full history


class TestMixDifferential:
    @pytest.mark.parametrize("scheme", sorted(FACTORIES))
    @pytest.mark.parametrize("shift", [0, 3])
    def test_two_app_mix_exact(self, cfg, mix2, scheme, shift, monkeypatch):
        kwargs = dict(n_intervals=5, sample_shift=shift, use_cache=False)
        batched, serial = batched_and_serial(
            lambda: simulate_mix(mix2, cfg, FACTORIES[scheme], **kwargs),
            monkeypatch,
        )
        assert_mix_equal(batched, serial)

    @pytest.mark.parametrize("scheme", ["Jigsaw", "Whirlpool", "S-NUCA/DRRIP"])
    def test_four_app_mix_exact(self, cfg, mix4, scheme, monkeypatch):
        kwargs = dict(n_intervals=4, sample_shift=0, use_cache=False)
        batched, serial = batched_and_serial(
            lambda: simulate_mix(mix4, cfg, FACTORIES[scheme], **kwargs),
            monkeypatch,
        )
        assert_mix_equal(batched, serial)

    def test_pooled_whirlpool_mix_exact(self, cfg, mix2, monkeypatch):
        """Multi-VC-per-app layout (the Whirlpool mix rule)."""
        mis = build_workload("MIS", scale="train", seed=0)
        apps = [mis, mix2[0]]
        classifiers = [ManualPoolClassifier(), SingleVCClassifier()]
        kwargs = dict(
            classifiers=classifiers, n_intervals=5, sample_shift=0,
            use_cache=False,
        )
        batched, serial = batched_and_serial(
            lambda: simulate_mix(
                apps, cfg, lambda c, v: WhirlpoolScheme(c, v), **kwargs
            ),
            monkeypatch,
        )
        assert_mix_equal(batched, serial)

    def test_empty_mix(self, cfg, monkeypatch):
        for result in batched_and_serial(
            lambda: simulate_mix([], cfg, JigsawScheme, n_intervals=4),
            monkeypatch,
        ):
            assert result.per_app == []

    def test_unknown_engine_rejected(self, cfg, mix2):
        # One stepping path: the old engine= switch is gone, not ignored.
        with pytest.raises(TypeError, match="engine"):
            simulate_mix(mix2, cfg, JigsawScheme, engine="serial")


class TestSingleDifferential:
    @pytest.mark.parametrize("scheme", sorted(FACTORIES))
    def test_simulate_exact(self, cfg, scheme, monkeypatch):
        workload = build_workload("MIS", scale="train", seed=0)
        kwargs = dict(n_intervals=6, use_cache=False)
        batched, serial = batched_and_serial(
            lambda: simulate(workload, cfg, FACTORIES[scheme], **kwargs),
            monkeypatch,
        )
        assert batched == serial

    def test_unknown_engine_rejected(self, cfg):
        workload = build_workload("MIS", scale="train", seed=0)
        with pytest.raises(TypeError, match="engine"):
            simulate(workload, cfg, JigsawScheme, engine="serial")
