"""Chaos tests: campaigns under injected faults converge exactly.

The headline invariant of the fault-tolerance layer: a campaign run
under a deterministic fault plan — worker crashes, hung jobs, transient
I/O errors — produces a ResultStore *byte-identical* (modulo append
order, which parallel completion never fixes) to the fault-free run,
with the retries visible in the RunReport and zero jobs lost.  Poison
jobs (faults on every attempt) are quarantined rather than retried
forever, and ``campaign quarantine retry`` recovers them once the
fault profile is lifted.

Each scenario runs across three fixed seeds; with ``$REPRO_CHAOS_REPORT``
set, every run appends a JSON line (profile, seed, retry/quarantine
counts) for the CI artifact upload.
"""

import json
import os
from collections import Counter

import pytest

from repro.cli import main
from repro.devtools import faults
from repro.exp import (
    Campaign,
    Quarantine,
    ResultStore,
    quarantine_path_for,
    run_campaign,
)
from repro.obs import events_path_for
from repro.obs.report import load_events, rollup
from repro.retry import RetryPolicy

SEEDS = [101, 202, 303]

#: A small but real grid: 2 apps x 2 schemes at train scale.
APPS = ["MIS", "dict"]
SCHEMES = ["LRU", "Jigsaw"]


def chaos_campaign() -> Campaign:
    return Campaign(
        name="chaos2x2", apps=APPS, schemes=SCHEMES, scale="train"
    )


def _policy(seed: int) -> RetryPolicy:
    return RetryPolicy(
        max_attempts=4, base_delay=0.02, max_delay=0.2, seed=seed
    )


def _chaos_report(**entry) -> None:
    """Append one run's outcome to ``$REPRO_CHAOS_REPORT`` (CI artifact)."""
    path = os.environ.get("REPRO_CHAOS_REPORT")
    if not path:
        return
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.reset()
    yield
    faults.reset()


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """The fault-free reference store (sorted lines are the oracle)."""
    path = tmp_path_factory.mktemp("baseline") / "store.jsonl"
    report = run_campaign(
        chaos_campaign(), ResultStore(path), workers=2, retry=_policy(0)
    )
    assert report.executed == len(APPS) * len(SCHEMES)
    assert not report.failures and report.retried == 0
    return sorted(path.read_text().splitlines())


def _fault_plan(profile: str, seed: int) -> str:
    """The three CI chaos profiles, as inline ``$REPRO_FAULTS`` JSON."""
    jobs = chaos_campaign().jobs()
    if profile == "worker-crash":
        # Every job's first attempt dies like an OOM kill.
        rules = [{"site": "worker", "mode": "crash", "attempts": [1]}]
    elif profile == "hang-timeout":
        # One specific job hangs on its first attempt, far past the
        # engine's per-job deadline.
        rules = [
            {
                "site": "worker",
                "mode": "hang",
                "attempts": [1],
                "seconds": 300.0,
                "match": jobs[0].key(),
            }
        ]
    elif profile == "transient-io":
        # The first execute per (worker process, job) raises OSError.
        rules = [{"site": "execute", "mode": "raise", "count": 1}]
    else:  # pragma: no cover - guarded by parametrize
        raise ValueError(profile)
    return json.dumps({"seed": seed, "rules": rules})


class TestChaosInvariant:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "profile", ["worker-crash", "hang-timeout", "transient-io"]
    )
    def test_faulted_run_converges_to_fault_free_store(
        self, profile, seed, tmp_path, monkeypatch, baseline
    ):
        monkeypatch.setenv(faults.ENV_VAR, _fault_plan(profile, seed))
        path = tmp_path / "store.jsonl"
        report = run_campaign(
            chaos_campaign(),
            ResultStore(path),
            workers=2,
            retry=_policy(seed),
            job_timeout=3.0 if profile == "hang-timeout" else None,
        )
        _chaos_report(
            profile=profile,
            seed=seed,
            executed=report.executed,
            retried=report.retried,
            quarantined=len(report.quarantined),
            failures=len(report.failures),
        )
        # Zero jobs lost, retries visible, nothing quarantined.
        assert report.executed == len(APPS) * len(SCHEMES)
        assert not report.failures
        assert report.retried > 0
        assert not report.quarantined
        assert len(Quarantine(quarantine_path_for(path))) == 0
        # The headline: the store converged byte-identically.
        assert sorted(path.read_text().splitlines()) == baseline


class TestPoisonQuarantine:
    def test_poison_job_quarantines_then_cli_retry_recovers(
        self, tmp_path, monkeypatch, capsys, baseline
    ):
        jobs = chaos_campaign().jobs()
        poison_key = jobs[0].key()
        plan = json.dumps(
            {
                "seed": 0,
                "rules": [
                    {
                        "site": "worker",
                        "mode": "crash",
                        "attempts": [1, 2, 3, 4],
                        "match": poison_key,
                    }
                ],
            }
        )
        monkeypatch.setenv(faults.ENV_VAR, plan)
        path = tmp_path / "store.jsonl"
        report = run_campaign(
            chaos_campaign(),
            ResultStore(path),
            workers=2,
            strict=False,
            retry=_policy(0),
        )
        # The poison job hit its attempt cap and was parked — not
        # retried forever — while every healthy job completed.
        assert report.executed == len(jobs) - 1
        assert report.quarantined == [poison_key]
        quarantine = Quarantine(quarantine_path_for(path))
        assert poison_key in quarantine
        assert len(quarantine.get(poison_key)["attempts"]) == 4

        # Resubmitting under the same faults skips the parked job
        # instead of burning attempts on it again.
        again = run_campaign(
            chaos_campaign(),
            ResultStore(path),
            workers=2,
            strict=False,
            retry=_policy(0),
        )
        assert again.executed == 0
        assert again.quarantined == [poison_key]

        # Lift the fault profile; the CLI inspects and recovers it.
        monkeypatch.delenv(faults.ENV_VAR)
        faults.reset()
        code = main(["campaign", "quarantine", "list", "--store", str(path)])
        assert code == 0
        assert poison_key in capsys.readouterr().out

        code = main(["campaign", "quarantine", "retry", "--store", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 recovered" in out
        _chaos_report(
            profile="poison-quarantine", seed=0, recovered=1, failures=0
        )

        # Fully converged: quarantine empty, store equals fault-free.
        assert len(Quarantine(quarantine_path_for(path))) == 0
        assert sorted(path.read_text().splitlines()) == baseline


class TestChaosEventLog:
    """The events sidecar must tell the chaos story, exactly.

    A campaign run writes ``<store>.events.jsonl`` by default; after a
    poison-crasher run the log alone must reconstruct the full
    retry -> crash-attribution -> quarantine narrative (every injected
    fault, every charged ``worker-crash`` attempt, the quarantine
    verdict), and its rollup must reproduce the RunReport's counts —
    including events emitted by workers that ``os._exit`` crashed
    immediately afterwards.
    """

    def _poison_run(self, tmp_path, monkeypatch):
        jobs = chaos_campaign().jobs()
        poison_key = jobs[0].key()
        plan = json.dumps(
            {
                "seed": 0,
                "rules": [
                    {
                        "site": "worker",
                        "mode": "crash",
                        "attempts": [1, 2, 3, 4],
                        "match": poison_key,
                    }
                ],
            }
        )
        monkeypatch.setenv(faults.ENV_VAR, plan)
        path = tmp_path / "store.jsonl"
        report = run_campaign(
            chaos_campaign(),
            ResultStore(path),
            workers=2,
            strict=False,
            retry=_policy(0),
        )
        return poison_key, path, report

    def test_event_log_reconstructs_poison_story(
        self, tmp_path, monkeypatch
    ):
        poison_key, path, report = self._poison_run(tmp_path, monkeypatch)
        assert report.quarantined == [poison_key]
        events = load_events(events_path_for(path))

        def for_poison(kind, name):
            return [
                e
                for e in events
                if e.get("kind") == kind
                and e.get("name") == name
                and e.get("fields", {}).get("key") == poison_key
            ]

        # Every injected fault is on record — one per execution the
        # poison job actually got, each emitted by a worker that died
        # by os._exit right after (the flush-per-line guarantee).
        injected = [
            e
            for e in events
            if e.get("name") == "fault.injected"
            and e.get("fields", {}).get("key") == poison_key
        ]
        attempts_started = for_poison("span-start", "worker.attempt")
        assert len(injected) == len(attempts_started) >= 4
        assert all(
            e["fields"]["site"] == "worker"
            and e["fields"]["mode"] == "crash"
            for e in injected
        )

        # Crash attribution: exactly max_attempts charged attempts,
        # every one attributed to a worker crash.
        charged = for_poison("event", "job.attempt-failed")
        assert len(charged) == 4
        assert all(e["fields"]["kind"] == "worker-crash" for e in charged)

        # The verdict: one quarantine event, after the final charge,
        # recording the full attempt history.
        quarantined = for_poison("event", "job.quarantined")
        assert len(quarantined) == 1
        assert quarantined[0]["fields"]["attempts"] == 4
        assert events.index(quarantined[0]) > events.index(charged[-1])

        # Retries in the log match the story: attempts 2..4 re-ran.
        retries = for_poison("event", "job.retry")
        assert len(retries) >= 3

        # Healthy jobs completed normally, on record.
        completed_keys = {
            e["fields"]["key"]
            for e in events
            if e.get("name") == "job.completed"
        }
        assert poison_key not in completed_keys
        assert len(completed_keys) == report.executed

    @pytest.mark.parametrize("workers", [0, 2])
    def test_every_span_starts_and_ends_once(
        self, workers, tmp_path, monkeypatch
    ):
        # One failed attempt, so the retry path ends its spans too.
        rule = {
            "site": "worker",
            "mode": "raise",
            "attempts": [1],
            "match": chaos_campaign().jobs()[0].key(),
        }
        monkeypatch.setenv(
            faults.ENV_VAR, json.dumps({"seed": 0, "rules": [rule]})
        )
        path = tmp_path / "store.jsonl"
        report = run_campaign(
            chaos_campaign(),
            ResultStore(path),
            workers=workers,
            retry=_policy(0),
        )
        assert report.executed == len(APPS) * len(SCHEMES)
        assert report.retried == 1
        records = Counter(
            (e["span"], e["kind"])
            for e in load_events(events_path_for(path))
            if e["kind"] in ("span-start", "span-end")
        )
        ids = {span for span, __ in records}
        assert len(ids) > 2 * len(APPS) * len(SCHEMES)
        unpaired = {
            span: (records[span, "span-start"], records[span, "span-end"])
            for span in ids
            if records[span, "span-start"] != 1
            or records[span, "span-end"] != 1
        }
        assert not unpaired, unpaired

    def test_rollup_replays_run_report_counts(self, tmp_path, monkeypatch):
        poison_key, path, report = self._poison_run(tmp_path, monkeypatch)
        summary = rollup(load_events(events_path_for(path)))
        # The acceptance invariant: replaying the sidecar reproduces
        # the RunReport's counts exactly.
        assert summary["jobs"] == {
            "completed": report.executed,
            "retried": report.retried,
            "quarantined": len(report.quarantined),
        }
        # And the counter metrics agree with the lifecycle events.
        counters = summary["metrics"]["counters"]
        assert counters.get("engine.jobs.completed", 0) == report.executed
        assert counters.get("engine.jobs.retried", 0) == report.retried
        assert counters.get("engine.jobs.quarantined", 0) == len(
            report.quarantined
        )
        # The poison job shows up as the lone retry storm.
        assert poison_key in {s["key"] for s in summary["retry_storms"]}


class TestChaosReport:
    def test_report_lines_append_when_env_set(self, tmp_path, monkeypatch):
        report_path = tmp_path / "chaos-report.jsonl"
        monkeypatch.setenv("REPRO_CHAOS_REPORT", str(report_path))
        _chaos_report(profile="x", seed=1, retried=2)
        _chaos_report(profile="y", seed=2, retried=0)
        lines = [
            json.loads(line)
            for line in report_path.read_text().splitlines()
        ]
        assert [e["profile"] for e in lines] == ["x", "y"]

    def test_report_disabled_without_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS_REPORT", raising=False)
        _chaos_report(profile="x", seed=1)  # must be a no-op, not a crash
