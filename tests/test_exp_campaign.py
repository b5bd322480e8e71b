"""Integration tests for the campaign engine (repro.exp).

Covers the PR's acceptance criteria: a parallel campaign matches the
serial ``run_schemes`` path exactly, an interrupted campaign resumes by
executing only the missing jobs, and serial vs. multi-worker runs
produce byte-identical stores modulo ordering.
"""

import json

from repro.analysis import resolve_classifier, run_scheme, run_schemes
from repro.exp import Campaign, ResultStore, campaign_status, run_campaign
from repro.nuca import four_core_config
from repro.workloads import build_workload

APPS = ["MIS", "dict", "lbm"]
SCHEMES = ["LRU", "IdealSPD", "Jigsaw"]


def small_campaign() -> Campaign:
    return Campaign(
        name="grid3x3", apps=APPS, schemes=SCHEMES, scale="train"
    )


class TestCampaignRun:
    def test_parallel_matches_serial_run_schemes(self, tmp_path):
        campaign = small_campaign()
        store = ResultStore(tmp_path / "store.jsonl")
        report = run_campaign(campaign, store, workers=4)
        assert report.executed == len(APPS) * len(SCHEMES)
        assert not report.failures

        cfg = four_core_config()
        by_key = {
            (job.app, job.scheme): job.key() for job in campaign.jobs()
        }
        for app in APPS:
            workload = build_workload(app, scale="train", seed=0)
            expected = run_schemes(workload, cfg, schemes=SCHEMES)
            for scheme in SCHEMES:
                record = store.get(by_key[(app, scheme)])
                assert record["cycles"] == expected[scheme].cycles
                assert record["hits"] == expected[scheme].hits
                assert record["misses"] == expected[scheme].misses
                assert (
                    record["energy"]["memory"]
                    == expected[scheme].energy.memory
                )

    def test_parallel_whirltool_matches_serial_run_schemes(self, tmp_path):
        # omnet has no manual pools, so "auto" is WhirlTool at 3 pools:
        # workers train on execute's cached run, run_schemes through
        # train_whirltool.
        campaign = Campaign(
            name="wt",
            apps=["omnet"],
            schemes=["Whirlpool"],
            classifiers=["auto", "whirltool:2"],
        )
        store = ResultStore(tmp_path / "store.jsonl")
        report = run_campaign(campaign, store, workers=2)
        assert report.executed == 2 and not report.failures

        cfg = four_core_config()
        workload = build_workload("omnet", scale="ref", seed=0)
        expected = {
            "auto": run_schemes(workload, cfg, schemes=["Whirlpool"])["Whirlpool"],
            "whirltool:2": run_scheme(
                workload,
                cfg,
                "Whirlpool",
                classifier=resolve_classifier("whirltool:2", workload),
            ),
        }
        for job in campaign.jobs():
            record = store.get(job.key())
            want = expected[job.classifier]
            assert record["cycles"] == want.cycles
            assert record["hits"] == want.hits
            assert record["misses"] == want.misses
            assert record["energy"] == {
                "network": want.energy.network,
                "bank": want.energy.bank,
                "memory": want.energy.memory,
            }

    def test_interrupted_run_resumes_missing_jobs_only(self, tmp_path):
        campaign = small_campaign()
        path = tmp_path / "store.jsonl"
        run_campaign(campaign, ResultStore(path), workers=1)

        # Simulate a kill mid-run: keep the first 4 completed records
        # plus one half-written line.
        lines = path.read_text().splitlines()
        assert len(lines) == 9
        path.write_text("\n".join(lines[:4]) + "\n" + lines[4][: len(lines[4]) // 2])

        status = campaign_status(campaign, path)
        assert status["done"] == 4
        assert status["pending"] == 5

        report = run_campaign(campaign, ResultStore(path), workers=1)
        assert report.executed == 5
        assert report.skipped == 4
        assert campaign_status(campaign, path)["pending"] == 0

    def test_serial_and_parallel_stores_identical_modulo_order(self, tmp_path):
        campaign = small_campaign()
        serial = tmp_path / "serial.jsonl"
        parallel = tmp_path / "parallel.jsonl"
        run_campaign(campaign, ResultStore(serial), workers=1)
        run_campaign(campaign, ResultStore(parallel), workers=4)
        assert sorted(serial.read_text().splitlines()) == sorted(
            parallel.read_text().splitlines()
        )

    def test_status_fingerprints_each_job_once(self, tmp_path, monkeypatch):
        # Regression: campaign_status used to recompute every Job.key()
        # three times (done list, pending list, per-scheme loop); keys
        # hash the full job spec, so the grid was fingerprinted 3x over.
        from repro.exp import job as job_module

        campaign = small_campaign()
        calls: list[str] = []
        original_key = job_module.Job.key

        def counting_key(self):
            calls.append(self.app)
            return original_key(self)

        monkeypatch.setattr(job_module.Job, "key", counting_key)
        status = campaign_status(campaign, tmp_path / "empty.jsonl")
        n_jobs = len(APPS) * len(SCHEMES)
        assert len(calls) == n_jobs
        assert status["total"] == n_jobs
        assert status["pending"] == n_jobs
        assert sum(
            row["pending"] for row in status["per_scheme"].values()
        ) == n_jobs


class TestCampaignCli:
    def test_submit_status_export(self, tmp_path, capsys):
        from repro.cli import main

        spec = tmp_path / "spec.json"
        store = tmp_path / "store.jsonl"
        Campaign(
            name="cli", apps=["MIS"], schemes=["LRU", "Jigsaw"], scale="train"
        ).save(spec)

        assert (
            main(
                ["campaign", "submit", "--spec", str(spec), "--store", str(store)]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "2 executed" in out

        assert (
            main(
                ["campaign", "status", "--spec", str(spec), "--store", str(store)]
            )
            == 0
        )
        assert "2/2 done" in capsys.readouterr().out

        # Resuming a finished campaign is a no-op.
        assert (
            main(
                ["campaign", "resume", "--spec", str(spec), "--store", str(store)]
            )
            == 0
        )
        assert "0 executed" in capsys.readouterr().out

        assert main(["campaign", "export", "--store", str(store)]) == 0
        table = capsys.readouterr().out
        assert "MIS" in table and "LRU" in table

    def test_status_requires_spec(self, capsys):
        from repro.cli import main

        assert main(["campaign", "status"]) == 2

    def test_store_records_carry_job_specs(self, tmp_path):
        campaign = Campaign(
            name="meta", apps=["MIS"], schemes=["LRU"], scale="train"
        )
        path = tmp_path / "store.jsonl"
        run_campaign(campaign, ResultStore(path), workers=1)
        entry = json.loads(path.read_text().splitlines()[0])
        assert entry["job"]["app"] == "MIS"
        assert entry["job"]["scheme"] == "LRU"
        assert entry["result"]["cycles"] > 0
