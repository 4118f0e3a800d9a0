"""Unit tests of the shard executors (lifecycle, dispatch, failures)."""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.cluster.executor import (
    ProcessShardExecutor,
    SerialShardExecutor,
)
from repro.errors import (
    ClusterCallError,
    ClusterError,
    ConfigurationError,
    ShardTimeoutError,
    ShardUnavailableError,
)

FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()


class Echo:
    """A trivial shard: remembers its id, echoes calls, counts closes."""

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.closed = False

    def whoami(self) -> "tuple[int, int]":
        return self.shard_id, os.getpid()

    def add(self, a: int, b: int) -> int:
        return self.shard_id * 100 + a + b

    def boom(self) -> None:
        raise ValueError(f"shard {self.shard_id} exploded")

    def nap(self, seconds: float) -> str:
        time.sleep(seconds)
        return "rested"

    def close(self) -> None:
        self.closed = True


ALL = {"serial": SerialShardExecutor, "process": ProcessShardExecutor}


@pytest.mark.parametrize("kind", list(ALL))
def test_call_all_returns_results_in_shard_order(kind):
    if kind == "process" and not FORK_AVAILABLE:
        pytest.skip("fork start method unavailable")
    with ALL[kind]() as executor:
        executor.start(Echo, 3)
        results = executor.call_all("add", [(1, 2), (3, 4), (5, 6)])
        assert results == [3, 107, 211]
        assert executor.call_one(1, "add", 10, 20) == 130


def test_in_process_shards_share_the_calling_process():
    with SerialShardExecutor() as executor:
        executor.start(Echo, 2)
        for shard_id, (echo_id, pid) in enumerate(
                executor.call_all("whoami")):
            assert echo_id == shard_id
            assert pid == os.getpid()
        assert [shard.shard_id for shard in executor.shards] == [0, 1]


@pytest.mark.skipif(not FORK_AVAILABLE, reason="fork unavailable")
def test_process_shards_live_in_distinct_worker_processes():
    with ProcessShardExecutor() as executor:
        executor.start(Echo, 3)
        results = executor.call_all("whoami")
        pids = [pid for _, pid in results]
        assert [echo_id for echo_id, _ in results] == [0, 1, 2]
        assert os.getpid() not in pids
        assert len(set(pids)) == 3


@pytest.mark.parametrize("kind", list(ALL))
def test_shard_exceptions_surface_and_workers_survive(kind):
    if kind == "process" and not FORK_AVAILABLE:
        pytest.skip("fork start method unavailable")
    with ALL[kind]() as executor:
        executor.start(Echo, 2)
        with pytest.raises((ValueError, ClusterError)) as excinfo:
            executor.call_all("boom")
        assert "exploded" in str(excinfo.value)
        # The failure did not take the shards down.
        assert executor.call_all("add", [(1, 1), (2, 2)]) == [2, 104]


def test_lifecycle_guards():
    executor = SerialShardExecutor()
    with pytest.raises(ConfigurationError):
        executor.call_all("whoami")       # not started
    executor.start(Echo, 2)
    with pytest.raises(ConfigurationError):
        executor.start(Echo, 2)           # double start
    with pytest.raises(ConfigurationError):
        executor.call_all("add", [(1, 2)])  # wrong arg arity
    with pytest.raises(ConfigurationError):
        executor.call_one(5, "whoami")    # shard out of range
    shards = executor.shards
    executor.close()
    assert all(shard.closed for shard in shards)
    executor.close()                      # idempotent
    with pytest.raises(ConfigurationError):
        executor.call_all("whoami")       # closed

    with pytest.raises(ConfigurationError):
        SerialShardExecutor().start(Echo, 0)


@pytest.mark.skipif(not FORK_AVAILABLE, reason="fork unavailable")
def test_process_factory_failure_is_reported():
    def bad_factory(shard_id: int) -> Echo:
        raise RuntimeError("no shard for you")

    executor = ProcessShardExecutor()
    with pytest.raises(ClusterError) as excinfo:
        executor.start(bad_factory, 1)
    assert "factory failed" in str(excinfo.value)


# ---------------------------------------------------------------------------
# Failure paths: detection, typed errors, restart, teardown hygiene.

def _shard_workers() -> list:
    return [proc for proc in multiprocessing.active_children()
            if proc.name.startswith("shard-")]


def test_in_process_partial_start_closes_built_shards():
    built: list[Echo] = []

    def flaky_factory(shard_id: int) -> Echo:
        if shard_id == 2:
            raise RuntimeError("shard 2 factory exploded")
        shard = Echo(shard_id)
        built.append(shard)
        return shard

    executor = SerialShardExecutor()
    with pytest.raises(RuntimeError, match="factory exploded"):
        executor.start(flaky_factory, 3)
    assert [shard.shard_id for shard in built] == [0, 1]
    assert all(shard.closed for shard in built), \
        "a failed start leaked live shards"
    executor.close()  # idempotent after a failed start
    executor.close()
    with pytest.raises(ConfigurationError):
        executor.call_all("whoami")


@pytest.mark.skipif(not FORK_AVAILABLE, reason="fork unavailable")
def test_process_partial_start_leaves_no_workers_behind():
    def flaky_factory(shard_id: int) -> Echo:
        if shard_id == 1:
            raise RuntimeError("shard 1 factory exploded")
        return Echo(shard_id)

    executor = ProcessShardExecutor()
    with pytest.raises(ClusterError, match="factory failed"):
        executor.start(flaky_factory, 3)
    deadline = time.monotonic() + 5.0
    while _shard_workers() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _shard_workers() == [], "a failed start leaked shard workers"
    executor.close()  # idempotent after a failed start
    executor.close()


@pytest.mark.skipif(not FORK_AVAILABLE, reason="fork unavailable")
def test_sigkill_surfaces_typed_with_signal_forensics():
    with ProcessShardExecutor() as executor:
        executor.start(Echo, 2)
        os.kill(executor._workers[1].pid, signal.SIGKILL)
        executor._workers[1].join(timeout=5.0)
        with pytest.raises(ShardUnavailableError) as excinfo:
            executor.call_one(1, "whoami")
        assert excinfo.value.shard_id == 1
        assert "killed by SIGKILL" in str(excinfo.value)
        assert not executor.alive(1)
        assert executor.alive(0)
        # The survivor still serves.
        assert executor.call_one(0, "add", 1, 2) == 3


@pytest.mark.skipif(not FORK_AVAILABLE, reason="fork unavailable")
def test_sigkill_mid_call_surfaces_on_receive():
    with ProcessShardExecutor() as executor:
        executor.start(Echo, 1)
        caught: list[Exception] = []

        def serve() -> None:
            try:
                executor.call_one(0, "nap", 30.0)
            except ClusterError as exc:
                caught.append(exc)

        thread = threading.Thread(target=serve)
        thread.start()
        time.sleep(0.3)  # let the worker dequeue the nap
        os.kill(executor._workers[0].pid, signal.SIGKILL)
        thread.join(timeout=10.0)
        assert not thread.is_alive()
        assert len(caught) == 1
        assert isinstance(caught[0], ShardUnavailableError)
        assert caught[0].shard_id == 0
        assert "killed by SIGKILL" in str(caught[0])


@pytest.mark.skipif(not FORK_AVAILABLE, reason="fork unavailable")
def test_dead_shard_refuses_calls_until_restarted():
    with ProcessShardExecutor() as executor:
        executor.start(Echo, 2)
        os.kill(executor._workers[0].pid, signal.SIGKILL)
        executor._workers[0].join(timeout=5.0)
        with pytest.raises(ShardUnavailableError):
            executor.call_one(0, "whoami")
        # Marked dead: the next call fails fast, without touching the pipe.
        with pytest.raises(ShardUnavailableError, match="awaiting restart"):
            executor.call_one(0, "whoami")
        executor.restart_shard(0)
        assert executor.alive(0)
        shard_id, pid = executor.call_one(0, "whoami")
        assert shard_id == 0
        assert pid != os.getpid()


@pytest.mark.skipif(not FORK_AVAILABLE, reason="fork unavailable")
def test_hung_worker_times_out_typed_and_needs_restart():
    with ProcessShardExecutor(call_timeout=0.3) as executor:
        executor.start(Echo, 1)
        with pytest.raises(ShardTimeoutError) as excinfo:
            executor.call_one(0, "nap", 30.0)
        assert excinfo.value.shard_id == 0
        assert "did not answer within 0.3s" in str(excinfo.value)
        # A timed-out pipe is desynchronized — the shard is dead until
        # restarted, even though the worker process is still running.
        with pytest.raises(ShardUnavailableError, match="awaiting restart"):
            executor.call_one(0, "whoami")
        executor.restart_shard(0)
        assert executor.call_one(0, "add", 2, 3) == 5


@pytest.mark.skipif(not FORK_AVAILABLE, reason="fork unavailable")
def test_fanout_aggregates_failures_with_partial_results():
    with ProcessShardExecutor() as executor:
        executor.start(Echo, 3)
        os.kill(executor._workers[1].pid, signal.SIGKILL)
        executor._workers[1].join(timeout=5.0)
        with pytest.raises(ClusterCallError) as excinfo:
            executor.call_all("add", [(1, 1), (2, 2), (3, 3)])
        error = excinfo.value
        assert error.method == "add"
        assert sorted(error.failures) == [1]
        assert isinstance(error.failures[1], ShardUnavailableError)
        assert error.results == [2, None, 206]
        assert "shard 1" in str(error)
        # The survivors were drained and stay usable.
        assert executor.call_some([0, 2], "add", [(1, 1), (3, 3)]) == [2, 206]
        executor.restart_shard(1)
        assert executor.call_all("add", [(1, 1), (2, 2), (3, 3)]) == \
            [2, 104, 206]


def test_restart_shard_in_process_rebuilds_from_factory():
    with SerialShardExecutor() as executor:
        executor.start(Echo, 2)
        original = executor.shards[1]
        executor.restart_shard(1)
        assert original.closed, "restart must close the replaced shard"
        replacement = executor.shards[1]
        assert replacement is not original
        assert replacement.shard_id == 1
        assert executor.call_one(1, "add", 1, 1) == 102


def test_call_timeout_must_be_positive():
    with pytest.raises(ConfigurationError, match="call_timeout"):
        ProcessShardExecutor(call_timeout=0)
    with pytest.raises(ConfigurationError, match="call_timeout"):
        ProcessShardExecutor(call_timeout=-1.0)
