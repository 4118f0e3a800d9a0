"""Unit tests of the supervision layer (policy, recovery, quarantine).

Failures are scripted two ways: in-process shards that raise the typed
transient errors themselves (precise control over *when* a failure
surfaces), and the :class:`FaultInjectingExecutor` harness for the
fan-out aggregation paths.  Process-executor integration lives in
``tests/unit/test_cluster_executor.py`` and the chaos suites.
"""

from __future__ import annotations

import pytest

from repro.cluster.executor import SerialShardExecutor
from repro.cluster.faults import Fault, FaultInjectingExecutor, FaultPlan
from repro.cluster.supervision import (
    SKIP_AFTER_RESTART,
    RecoveryPolicy,
    ShardSupervisor,
)
from repro.errors import (
    ConfigurationError,
    ShardQuarantinedError,
    ShardUnavailableError,
)


class Worker:
    """In-process test shard: logs calls, fails on request."""

    def __init__(self, shard_id: int, log: list,
                 failures: "dict[int, int] | None" = None) -> None:
        self.shard_id = shard_id
        self.log = log
        self.failures = failures if failures is not None else {}
        self.cache = {"edges": [], "hits": 0}

    def _maybe_fail(self) -> None:
        remaining = self.failures.get(self.shard_id, 0)
        if remaining > 0:
            self.failures[self.shard_id] = remaining - 1
            raise ShardUnavailableError(
                self.shard_id, f"shard worker {self.shard_id} died (test)")

    def work(self, x: int = 1) -> int:
        self._maybe_fail()
        self.log.append((self.shard_id, "work"))
        return self.shard_id * 10 + x

    def apply_table_sync(self, tag: str) -> str:
        self._maybe_fail()
        self.log.append((self.shard_id, "apply_table_sync"))
        return f"synced-{self.shard_id}-{tag}"

    def bug(self) -> None:
        raise ValueError(f"shard {self.shard_id} has a bug")

    def ping(self) -> int:
        self._maybe_fail()
        return self.shard_id

    def export_cache_state(self) -> dict:
        return {"edges": list(self.cache["edges"]),
                "hits": self.cache["hits"]}

    def import_cache_state(self, state: dict) -> None:
        self.cache = {"edges": list(state["edges"]), "hits": state["hits"]}
        self.log.append((self.shard_id, "import_cache_state"))


def build(shard_count: int = 2, failures: "dict[int, int] | None" = None,
          policy: "RecoveryPolicy | None" = None,
          **supervisor_kwargs):
    """A started serial executor + supervisor over Worker shards."""
    log: list = []
    failures = failures if failures is not None else {}

    def factory(shard_id: int) -> Worker:
        return Worker(shard_id, log, failures)

    executor = SerialShardExecutor()
    executor.start(factory, shard_count)
    supervisor = ShardSupervisor(
        executor, policy=policy if policy is not None
        else RecoveryPolicy(backoff=(0.0,)), **supervisor_kwargs)
    return executor, supervisor, log


# ---------------------------------------------------------------------------
# Policy validation and backoff schedule.

def test_policy_rejects_bad_configuration():
    with pytest.raises(ConfigurationError, match="max_restarts"):
        RecoveryPolicy(max_restarts=-1)
    with pytest.raises(ConfigurationError, match="backoff"):
        RecoveryPolicy(backoff=(0.0, -1.0))
    with pytest.raises(ConfigurationError, match="degraded"):
        RecoveryPolicy(degraded="shrug")


def test_backoff_schedule_clamps_to_last_entry():
    policy = RecoveryPolicy(backoff=(0.0, 0.05, 0.2))
    assert [policy.delay_for(k) for k in range(5)] == \
        [0.0, 0.05, 0.2, 0.2, 0.2]
    assert RecoveryPolicy(backoff=()).delay_for(3) == 0.0


# ---------------------------------------------------------------------------
# Recovery.

def test_transient_failure_recovers_and_records_the_episode():
    executor, supervisor, log = build(failures={0: 1})
    assert supervisor.call_one(0, "work", 5) == 5
    assert supervisor.restarts == {0: 1}
    assert supervisor.quarantined == frozenset()
    [event] = supervisor.events
    assert event.shard_id == 0
    assert event.method == "work"
    assert event.outcome == "recovered"
    assert event.restarts == 1
    assert event.duration_seconds >= 0.0
    assert "died" in event.error
    # The replacement (not the dead original) served the call.
    assert log == [(0, "work")]


def test_budget_exhaustion_quarantines_the_shard():
    executor, supervisor, log = build(
        failures={0: 100},
        policy=RecoveryPolicy(max_restarts=2, backoff=(0.0,)))
    with pytest.raises(ShardQuarantinedError) as excinfo:
        supervisor.call_one(0, "work")
    assert excinfo.value.shard_id == 0
    assert "after 2 restart(s)" in str(excinfo.value)
    assert supervisor.quarantined == {0}
    assert supervisor.events[-1].outcome == "quarantined"
    # Later calls fail fast, without touching the executor again.
    calls_before = len(log)
    with pytest.raises(ShardQuarantinedError):
        supervisor.call_one(0, "work")
    assert len(log) == calls_before
    # The other shard is untouched and healthy.
    assert supervisor.call_one(1, "work") == 11


def test_non_transient_shard_exceptions_are_never_retried():
    executor, supervisor, log = build()
    with pytest.raises(ValueError, match="has a bug"):
        supervisor.call_one(0, "bug")
    assert supervisor.restarts == {}
    assert supervisor.events == []


def test_factory_provider_is_used():
    marker_log: list = []

    def fresh_factory():
        def factory(shard_id: int) -> Worker:
            worker = Worker(shard_id, marker_log)
            worker.fresh = True
            return worker
        return factory

    executor, supervisor, log = build(
        failures={1: 1}, factory_provider=fresh_factory)
    assert supervisor.call_one(1, "work") == 11
    assert getattr(executor.shards[1], "fresh", False), \
        "recovery must build the replacement from the provider's factory"


def test_checkpoint_restores_cache_state_on_the_replacement():
    executor, supervisor, log = build(failures={})
    executor.shards[0].cache = {"edges": [("a", "b")], "hits": 7}
    supervisor.checkpoint()
    # Now the shard dies; the replacement starts cold...
    executor.shards[0].failures[0] = 1
    assert supervisor.call_one(0, "work") == 1
    # ...and was restored from the checkpoint before serving.
    assert executor.shards[0].cache == {"edges": [("a", "b")], "hits": 7}
    assert (0, "import_cache_state") in log


def test_checkpoint_scoping_only_touches_named_shards():
    executor, supervisor, log = build(shard_count=3)
    executor.shards[1].cache["hits"] = 3
    supervisor.checkpoint([1])
    executor.shards[1].failures[1] = 1
    executor.shards[2].failures[2] = 1
    supervisor.call_one(1, "work")
    supervisor.call_one(2, "work")
    assert executor.shards[1].cache["hits"] == 3
    # Shard 2 was never checkpointed: its replacement stays cold.
    assert executor.shards[2].cache["hits"] == 0
    assert (2, "import_cache_state") not in log


def test_skip_after_restart_methods_are_not_redispatched():
    assert SKIP_AFTER_RESTART == {"apply_table_sync"}
    executor, supervisor, log = build(failures={0: 1})
    result = supervisor.call_one(0, "apply_table_sync", "t0")
    assert result is None, \
        "a resurrected shard already reflects the merged table"
    assert (0, "apply_table_sync") not in log
    # The shard recovered — serving calls flow again.
    assert supervisor.call_one(0, "work") == 1


def test_ping_reports_quarantined_and_dead_shards():
    executor, supervisor, log = build(
        shard_count=3, failures={2: 100},
        policy=RecoveryPolicy(max_restarts=0, backoff=(0.0,)))
    with pytest.raises(ShardQuarantinedError):
        supervisor.call_one(2, "work")
    executor.shards[0].failures[0] = 1  # dead but recoverable
    assert supervisor.ping() == [False, True, False]
    # ping is a probe, not a trigger: no restart was consumed on the
    # recoverable shard.
    assert supervisor.restarts.get(0, 0) == 0


# ---------------------------------------------------------------------------
# Fan-out recovery through the aggregation contract.

def test_call_all_retries_only_the_failed_shard():
    log: list = []

    def factory(shard_id: int) -> Worker:
        return Worker(shard_id, log)

    plan = FaultPlan([Fault(shard_id=1, kind="kill", method="work")])
    executor = FaultInjectingExecutor(SerialShardExecutor(), plan)
    executor.start(factory, 3)
    supervisor = ShardSupervisor(
        executor, policy=RecoveryPolicy(backoff=(0.0,)))
    results = supervisor.call_all("work", [(1,), (2,), (3,)])
    assert results == [1, 12, 23]
    assert plan.exhausted
    assert supervisor.restarts == {1: 1}
    # Survivors computed exactly once; the victim's replacement once.
    assert sorted(log) == [(0, "work"), (1, "work"), (2, "work")]
    executor.close()


def test_call_all_skips_quarantined_shards_with_none_slots():
    executor, supervisor, log = build(
        shard_count=3, failures={1: 100},
        policy=RecoveryPolicy(max_restarts=0, backoff=(0.0,)))
    with pytest.raises(ShardQuarantinedError):
        supervisor.call_one(1, "work")
    results = supervisor.call_all("work", [(1,), (2,), (3,)])
    assert results == [1, None, 23]
    # Quarantine never bleeds into the survivors.
    assert supervisor.call_one(0, "work", 4) == 4
    assert supervisor.call_one(2, "work", 4) == 24


def test_call_all_arity_is_validated():
    executor, supervisor, log = build(shard_count=2)
    with pytest.raises(ConfigurationError, match="argument tuples"):
        supervisor.call_all("work", [(1,)])
