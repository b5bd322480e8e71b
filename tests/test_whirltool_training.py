"""WhirlTool trains once per training run, on one path.

``repro.core.whirltool.runtime`` is the only code that turns a training
run into a merge tree: :func:`train_on` keeps the tree on the run
object, and :func:`train_whirltool` builds the run first.  These tests
count the work with monkeypatched wrappers, so each fails if a caller
stops sharing the run or the tree.
"""

from collections import Counter

import pytest

from repro.core.whirltool import (
    WhirlToolAnalyzer,
    WhirlToolClassifier,
    runtime,
    train_on,
)
from repro.exp import Job, MixCampaign, ResultStore, execute, run_campaign
from repro.workloads import MANUAL_APPS, build_workload

#: A SPEC app without manual pools and with four callpoints, so its
#: merge tree has three merges and ``auto`` means WhirlTool.
APP = "omnet"


@pytest.fixture()
def cluster_calls(monkeypatch):
    """Profiles passed to ``WhirlToolAnalyzer.cluster``, one per call."""
    calls = []
    real = WhirlToolAnalyzer.cluster

    def counting(self, profile):
        calls.append(profile)
        return real(self, profile)

    monkeypatch.setattr(WhirlToolAnalyzer, "cluster", counting)
    return calls


@pytest.fixture()
def fresh_runs(monkeypatch):
    """An empty workload LRU in ``repro.exp.execute``."""
    monkeypatch.setattr(execute, "_WORKLOAD_CACHE", {})


def test_cuts_of_one_run_share_one_tree(cluster_calls):
    run = build_workload(APP, scale="train", seed=0)
    three = WhirlToolClassifier(train_on(run), n_pools=3)
    two = WhirlToolClassifier(train_on(run), n_pools=2)
    assert three.clustering is two.clustering
    assert len(cluster_calls) == 1
    # The tree belongs to the run object, not to the app's name.
    again = train_on(build_workload(APP, scale="train", seed=0))
    assert again is not three.clustering
    assert again.merges == three.clustering.merges
    assert len(cluster_calls) == 2


def test_whirlpool_jobs_of_one_app_train_once(fresh_runs, cluster_calls):
    assert APP not in MANUAL_APPS
    records = {
        spec: execute.execute_job(Job(app=APP, scheme="Whirlpool", classifier=spec))
        for spec in ("whirltool:3", "whirltool:2", "auto")
    }
    assert len(cluster_calls) == 1
    assert records["auto"] == records["whirltool:3"]


def test_mix_grid_builds_each_run_once(fresh_runs, monkeypatch, tmp_path):
    builds = Counter()

    def counted(module):
        real = module.build_workload

        def build(name, scale="ref", seed=0):
            builds[(module.__name__, name, scale, seed)] += 1
            return real(name, scale=scale, seed=seed)

        monkeypatch.setattr(module, "build_workload", build)

    counted(execute)
    counted(runtime)
    campaign = MixCampaign(n_cores=[4], n_mixes=1, schemes=["Jigsaw", "Whirlpool"])
    report = run_campaign(campaign, ResultStore(tmp_path / "s.jsonl"), workers=0)
    assert report.executed == 2 and not report.failures
    runs = {
        (execute.__name__, name, "train", seed)
        for job in campaign.jobs()
        for name, seed in zip(job.apps(), job.mix_seeds)
    }
    assert builds == Counter(dict.fromkeys(runs, 1))


def test_whirltool_command_output(capsys):
    from repro.cli import main

    assert main(["whirltool", APP, "--pools", "3"]) == 0
    assert capsys.readouterr().out == (
        "callpoints: 4\n"
        "merge tree:\n"
        "  0.009717  event_heap  <->  messages\n"
        "   0.06742  event_heap+messages  <->  topology\n"
        "    0.3685  event_heap+messages+topology  <->  stats_log\n"
        "\n"
        "3-pool classification:\n"
        "  pool 0: stats_log\n"
        "  pool 1: topology\n"
        "  pool 2: event_heap, messages\n"
    )
