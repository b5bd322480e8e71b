"""Unit tests for the fault-tolerance primitives.

Covers the deterministic retry policy (``repro.retry``), the seeded
fault-injection harness (``repro.devtools.faults``), and the quarantine
sidecar (``repro.exp.quarantine``) — the pieces the supervised engine
composes.  Engine-level behavior lives in ``test_engine_supervision``;
the end-to-end chaos invariant in ``test_faults_chaos``.
"""

import json
import os

import pytest

from repro.devtools import faults
from repro.exp.quarantine import Quarantine, quarantine_path_for
from repro.retry import IO_RETRY, RetryPolicy, call_with_retries, seeded_unit


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    """Every test starts with no active plan and fresh tick counters."""
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.reset()
    yield
    faults.reset()


class TestSeededUnit:
    def test_deterministic_and_in_range(self):
        values = [seeded_unit(7, "key", n) for n in range(100)]
        assert values == [seeded_unit(7, "key", n) for n in range(100)]
        assert all(0.0 <= v < 1.0 for v in values)

    def test_varies_with_each_part(self):
        base = seeded_unit(0, "k", 1)
        assert seeded_unit(1, "k", 1) != base
        assert seeded_unit(0, "other", 1) != base
        assert seeded_unit(0, "k", 2) != base


class TestRetryPolicy:
    def test_delay_is_capped_exponential(self):
        policy = RetryPolicy(
            max_attempts=6, base_delay=0.1, backoff=2.0, max_delay=0.5,
            jitter=0.0,
        )
        delays = [policy.delay("k", n) for n in range(1, 6)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(base_delay=1.0, backoff=1.0, jitter=0.25, seed=3)
        d1 = policy.delay("k", 1)
        assert d1 == policy.delay("k", 1)
        assert 1.0 <= d1 < 1.25
        assert policy.delay("k", 1) != policy.delay("other", 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)


class TestCallWithRetries:
    def test_retries_then_succeeds(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return "ok"

        slept = []
        out = call_with_retries(flaky, key="k", sleep=slept.append)
        assert out == "ok"
        assert len(calls) == IO_RETRY.max_attempts == 3
        assert len(slept) == 2

    def test_exhaustion_reraises_last_error(self):
        def always():
            raise OSError("persistent")

        with pytest.raises(OSError, match="persistent"):
            call_with_retries(always, sleep=lambda s: None)

    def test_non_retryable_propagates_immediately(self):
        calls = []

        def typed():
            calls.append(1)
            raise ValueError("not transient")

        with pytest.raises(ValueError):
            call_with_retries(typed, sleep=lambda s: None)
        assert len(calls) == 1

    def test_on_retry_observes_attempts(self):
        seen = []

        def flaky():
            if len(seen) < 1:
                raise OSError("once")
            return 1

        call_with_retries(
            flaky,
            sleep=lambda s: None,
            on_retry=lambda n, exc: seen.append((n, type(exc).__name__)),
        )
        assert seen == [(1, "OSError")]


class TestFaultPlan:
    def test_round_trips_through_json(self):
        plan = faults.FaultPlan(
            [
                faults.FaultRule(site="worker", mode="crash", attempts=(1, 2)),
                faults.FaultRule(site="store-read", mode="raise", count=3),
            ],
            seed=11,
        )
        again = faults.FaultPlan.from_json(plan.to_json())
        assert again.seed == 11
        assert again.rules == plan.rules

    def test_rejects_unknown_mode_and_bad_probability(self):
        with pytest.raises(ValueError, match="unknown fault mode"):
            faults.FaultRule(site="worker", mode="explode")
        with pytest.raises(ValueError, match="p must be"):
            faults.FaultRule(site="worker", mode="crash", p=1.5)

    def test_attempt_rule_fires_only_on_listed_attempts(self):
        rule = faults.FaultRule(site="worker", mode="raise", attempts=(1, 3))
        assert rule.fires(0, "k", 1, 0)
        assert not rule.fires(0, "k", 2, 0)
        assert rule.fires(0, "k", 3, 0)
        assert not rule.fires(0, "k", None, 0)  # site without attempt info

    def test_count_rule_fires_first_n_ticks(self):
        rule = faults.FaultRule(site="store-read", mode="raise", count=2)
        fired = [rule.fires(0, "k", None, tick) for tick in range(4)]
        assert fired == [True, True, False, False]

    def test_probability_rule_is_seed_deterministic(self):
        rule = faults.FaultRule(site="worker", mode="raise", p=0.5)
        pattern = [rule.fires(5, "k", a, 0) for a in range(1, 20)]
        assert pattern == [rule.fires(5, "k", a, 0) for a in range(1, 20)]
        assert any(pattern) and not all(pattern)


class TestInjection:
    def test_inert_without_env(self):
        faults.maybe_inject("worker", key="k", attempt=1)
        assert faults.filter_bytes("store-read", b"payload") == b"payload"

    def test_raise_mode_fires_then_stops(self, monkeypatch):
        plan = {
            "rules": [
                {"site": "store-read", "mode": "raise", "count": 2},
            ]
        }
        monkeypatch.setenv(faults.ENV_VAR, json.dumps(plan))
        for __ in range(2):
            with pytest.raises(OSError, match="injected transient fault"):
                faults.maybe_inject("store-read", key="k")
        faults.maybe_inject("store-read", key="k")  # third tick: clean

    def test_match_scopes_rules_to_keys(self, monkeypatch):
        plan = {
            "rules": [
                {
                    "site": "store-read",
                    "mode": "raise",
                    "count": 99,
                    "match": "poison",
                },
            ]
        }
        monkeypatch.setenv(faults.ENV_VAR, json.dumps(plan))
        faults.maybe_inject("store-read", key="healthy")
        with pytest.raises(OSError):
            faults.maybe_inject("store-read", key="poison-abc")

    def test_sites_are_isolated(self, monkeypatch):
        plan = {
            "rules": [{"site": "follow-read", "mode": "raise", "count": 99}]
        }
        monkeypatch.setenv(faults.ENV_VAR, json.dumps(plan))
        faults.maybe_inject("store-read", key="k")  # different site: clean
        with pytest.raises(OSError):
            faults.maybe_inject("follow-read", key="k")

    def test_filter_bytes_corrupt_and_truncate(self, monkeypatch):
        plan = {
            "rules": [
                {"site": "rtrace-chunk", "mode": "truncate", "count": 1},
                {"site": "rtrace-chunk", "mode": "corrupt", "count": 1},
            ]
        }
        monkeypatch.setenv(faults.ENV_VAR, json.dumps(plan))
        data = bytes(range(16))
        torn = faults.filter_bytes("rtrace-chunk", data, key="m")
        assert torn == data[:8]  # first tick: truncated
        flipped = faults.filter_bytes("rtrace-chunk", data, key="m")
        assert len(flipped) == len(data) and flipped != data  # then corrupted
        clean = faults.filter_bytes("rtrace-chunk", data, key="m")
        assert clean == data  # rules spent

    def test_plan_loads_from_file_path(self, tmp_path, monkeypatch):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(
            json.dumps(
                {"rules": [{"site": "worker", "mode": "raise", "count": 1}]}
            )
        )
        monkeypatch.setenv(faults.ENV_VAR, str(plan_file))
        with pytest.raises(OSError):
            faults.maybe_inject("worker", key="k")


class _FakeJob:
    def __init__(self, name):
        self.name = name

    def key(self):
        return self.name

    def to_dict(self):
        return {"name": self.name}


class TestQuarantine:
    def test_sidecar_path_sits_next_to_store(self, tmp_path):
        assert quarantine_path_for(tmp_path / "campaign.jsonl") == (
            tmp_path / "campaign.quarantine.jsonl"
        )

    def test_add_replay_round_trip(self, tmp_path):
        path = tmp_path / "q.jsonl"
        q = Quarantine(path)
        attempts = [{"kind": "worker-crash", "error": "boom", "elapsed": 0.1}]
        q.add("k1", _FakeJob("k1"), attempts, interruptions=2)
        assert "k1" in q and len(q) == 1

        again = Quarantine(path)
        entry = again.get("k1")
        assert entry["job"] == {"name": "k1"}
        assert entry["attempts"] == attempts
        assert entry["interruptions"] == 2

    def test_last_write_wins_on_replay(self, tmp_path):
        path = tmp_path / "q.jsonl"
        q = Quarantine(path)
        q.add("k", _FakeJob("k"), [{"kind": "error", "error": "a"}])
        q.add("k", _FakeJob("k"), [{"kind": "error", "error": "b"}])
        again = Quarantine(path)
        assert len(again) == 1
        assert again.get("k")["attempts"][0]["error"] == "b"

    def test_torn_trailing_line_is_skipped_and_repaired(self, tmp_path):
        path = tmp_path / "q.jsonl"
        q = Quarantine(path)
        q.add("k1", _FakeJob("k1"), [])
        q.add("k2", _FakeJob("k2"), [])
        raw = path.read_text()
        lines = raw.splitlines()
        path.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2])

        survivor = Quarantine(path)
        assert "k1" in survivor and "k2" not in survivor
        survivor.add("k3", _FakeJob("k3"), [])
        assert set(Quarantine(path).keys()) == {"k1", "k3"}

    def test_remove_rewrites_atomically(self, tmp_path):
        path = tmp_path / "q.jsonl"
        q = Quarantine(path)
        for name in ("a", "b", "c"):
            q.add(name, _FakeJob(name), [])
        assert q.remove(["b", "missing"]) == 1
        assert set(Quarantine(path).keys()) == {"a", "c"}
        assert not list(tmp_path.glob(".q.jsonl.*"))  # no staging leftovers

    def test_failed_remove_keeps_object_and_file_agreeing(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "q.jsonl"
        q = Quarantine(path)
        for name in ("a", "b"):
            q.add(name, _FakeJob(name), [])

        def refuse(src, dst):
            raise OSError("disk full")

        with monkeypatch.context() as patched:
            patched.setattr(os, "replace", refuse)
            with pytest.raises(OSError, match="disk full"):
                q.remove(["a"])
        assert sorted(q.keys()) == sorted(Quarantine(path).keys()) == ["a", "b"]

    def test_remove_last_entry_unlinks_file(self, tmp_path):
        path = tmp_path / "q.jsonl"
        q = Quarantine(path)
        q.add("only", _FakeJob("only"), [])
        q.remove(["only"])
        assert not path.exists()
        assert len(Quarantine(path)) == 0

    def test_clear(self, tmp_path):
        path = tmp_path / "q.jsonl"
        q = Quarantine(path)
        q.add("a", _FakeJob("a"), [])
        assert q.clear() == 1
        assert not path.exists() and len(q) == 0
