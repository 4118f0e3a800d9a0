"""Shard executors: where shards live and how their calls run.

An executor owns the shard lifecycle — :meth:`ShardExecutor.start`
builds the shards from a factory, :meth:`ShardExecutor.close` tears
them down — and dispatches method calls to all shards (or one).  The
cluster layer never touches shards directly; swapping the executor
swaps the deployment shape without changing any cluster logic:

* :class:`SerialShardExecutor` — shards in-process, calls run one after
  another.  Zero overhead; the baseline every benchmark compares
  against, and the executor under which equivalence proofs are easiest
  to read.
* :class:`ProcessShardExecutor` — each shard is an *actor* in a worker
  process (``fork`` or ``spawn``) that the cluster's factory attaches,
  by segment name, to the one shared-memory copy of the event log.
  Calls travel a pipe as pickled (method, args) tuples; results return
  pickled, which roundtrips floats and numpy arrays bitwise, so answers
  are indistinguishable from in-process ones.  True parallelism, at
  the cost of per-call serialization and no shared mutable state (a
  cluster with process shards therefore refuses external storage and
  batch states).

Determinism contract shared by both: ``call_all`` returns results in
shard order no matter which shard finished first, and each shard
executes its own calls sequentially — so any per-shard computation is
bit-for-bit reproducible across executor choices.

Failure contract: no OS-level exception escapes the executor boundary.
A dead worker (pipe EOF, broken pipe on send) surfaces as
:class:`~repro.errors.ShardUnavailableError`, a hung worker (with
``call_timeout`` set) as :class:`~repro.errors.ShardTimeoutError`, and
a fan-out where some shards failed as a single
:class:`~repro.errors.ClusterCallError` aggregating *every* failure
with the partial results — all under :class:`~repro.errors.ClusterError`.
A failed shard is marked dead (a timed-out pipe is desynchronized and
must never be reused) until :meth:`ShardExecutor.restart_shard` rebuilds
it from the factory; the supervision layer
(:mod:`repro.cluster.supervision`) drives that recovery loop.
"""

from __future__ import annotations

import multiprocessing
import signal as _signal
import traceback
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable, Sequence
from typing import Any

from repro.errors import (
    ClusterCallError,
    ClusterError,
    ConfigurationError,
    ShardTimeoutError,
    ShardUnavailableError,
)

#: Factory signature: shard_id → shard object.  The cluster provides it;
#: executors decide where (and in which process) it runs.
ShardFactory = Callable[[int], Any]


class ShardExecutor(ABC):
    """Owns N shards and runs method calls against them."""

    #: Whether shards live in the calling process (and may therefore
    #: share objects — the event table, storage views, batch states —
    #: with the cluster).  Process-based executors set this False.
    in_process: bool = True

    def __init__(self) -> None:
        self._started = False

    @property
    def shard_count(self) -> int:
        """Number of shards started (0 before :meth:`start`)."""
        return self._count if self._started else 0

    def start(self, factory: ShardFactory, shard_count: int) -> None:
        """Build ``shard_count`` shards via ``factory``; idempotence error."""
        if self._started:
            raise ConfigurationError("executor already started")
        if shard_count < 1:
            raise ConfigurationError(
                f"shard_count must be >= 1, got {shard_count}")
        self._count = shard_count
        self._factory = factory
        try:
            self._start(factory, shard_count)
        except BaseException:
            # A failed start must not leak half-built shards or workers.
            try:
                self._close()
            except Exception:
                pass
            raise
        self._started = True

    def call_all(self, method: str,
                 args_per_shard: "Sequence[tuple] | None" = None
                 ) -> list[Any]:
        """Call ``method`` on every shard; results in shard order.

        Args:
            method: Shard method name.
            args_per_shard: One positional-args tuple per shard
                (defaults to no-arg calls).
        """
        self._check_started()
        if args_per_shard is None:
            args_per_shard = [()] * self._count
        if len(args_per_shard) != self._count:
            raise ConfigurationError(
                f"need {self._count} argument tuples, "
                f"got {len(args_per_shard)}")
        return self._call_all(method, args_per_shard)

    def call_some(self, shard_ids: Iterable[int], method: str,
                  args_per_shard: "Sequence[tuple] | None" = None
                  ) -> list[Any]:
        """Call ``method`` on a subset of shards; results align with ids.

        The supervision layer uses this to retry only failed shards and
        to skip quarantined ones; semantics otherwise match
        :meth:`call_all` restricted to ``shard_ids``.
        """
        self._check_started()
        shard_ids = list(shard_ids)
        if args_per_shard is None:
            args_per_shard = [()] * len(shard_ids)
        if len(args_per_shard) != len(shard_ids):
            raise ConfigurationError(
                f"need {len(shard_ids)} argument tuples, "
                f"got {len(args_per_shard)}")
        for shard_id in shard_ids:
            if not 0 <= shard_id < self._count:
                raise ConfigurationError(
                    f"shard_id {shard_id} out of range(0, {self._count})")
        return self._call_some(shard_ids, method, args_per_shard)

    def call_one(self, shard_id: int, method: str, *args: Any) -> Any:
        """Call ``method`` on one shard."""
        self._check_started()
        if not 0 <= shard_id < self._count:
            raise ConfigurationError(
                f"shard_id {shard_id} out of range(0, {self._count})")
        return self._call_one(shard_id, method, args)

    def restart_shard(self, shard_id: int,
                      factory: "ShardFactory | None" = None) -> None:
        """Tear down one shard and rebuild it from the factory.

        The replacement is built by ``factory`` (default: the factory
        :meth:`start` was given), so a restarted shard re-derives its
        state from the same sources a fresh start would — the basis of
        the deterministic-resurrection guarantee.
        """
        self._check_started()
        if not 0 <= shard_id < self._count:
            raise ConfigurationError(
                f"shard_id {shard_id} out of range(0, {self._count})")
        self._restart(shard_id, factory if factory is not None
                      else self._factory)

    def alive(self, shard_id: int) -> bool:
        """Whether the shard can currently serve calls (liveness probe)."""
        self._check_started()
        if not 0 <= shard_id < self._count:
            raise ConfigurationError(
                f"shard_id {shard_id} out of range(0, {self._count})")
        return self._alive(shard_id)

    def close(self) -> None:
        """Tear the shards down; further calls raise.  Idempotent."""
        if self._started:
            self._close()
            self._started = False

    def _check_started(self) -> None:
        if not self._started:
            raise ConfigurationError("executor not started (or closed)")

    # -- template methods ----------------------------------------------
    @abstractmethod
    def _start(self, factory: ShardFactory, shard_count: int) -> None: ...

    @abstractmethod
    def _call_all(self, method: str,
                  args_per_shard: Sequence[tuple]) -> list[Any]: ...

    def _call_some(self, shard_ids: list[int], method: str,
                   args_per_shard: Sequence[tuple]) -> list[Any]:
        return [self._call_one(shard_id, method, args)
                for shard_id, args in zip(shard_ids, args_per_shard)]

    @abstractmethod
    def _call_one(self, shard_id: int, method: str, args: tuple) -> Any: ...

    @abstractmethod
    def _restart(self, shard_id: int, factory: ShardFactory) -> None: ...

    def _alive(self, shard_id: int) -> bool:
        return True

    @abstractmethod
    def _close(self) -> None: ...

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class _InProcessExecutor(ShardExecutor):
    """Common base for executors whose shards live in this process."""

    in_process = True

    def _start(self, factory: ShardFactory, shard_count: int) -> None:
        # Built incrementally so a factory failure at shard k still
        # leaves shards 0..k-1 reachable for the teardown that
        # :meth:`ShardExecutor.start` runs before re-raising.
        self._shards: list[Any] = []
        for shard_id in range(shard_count):
            self._shards.append(factory(shard_id))

    @property
    def shards(self) -> list[Any]:
        """The live shard objects (cluster wiring needs direct access)."""
        self._check_started()
        return self._shards

    def _call_one(self, shard_id: int, method: str, args: tuple) -> Any:
        return getattr(self._shards[shard_id], method)(*args)

    def _restart(self, shard_id: int, factory: ShardFactory) -> None:
        old = self._shards[shard_id]
        close = getattr(old, "close", None)
        if close is not None:
            close()
        self._shards[shard_id] = factory(shard_id)

    def _close(self) -> None:
        for shard in getattr(self, "_shards", []):
            close = getattr(shard, "close", None)
            if close is not None:
                close()
        self._shards = []


class SerialShardExecutor(_InProcessExecutor):
    """Run every shard call sequentially in the calling thread."""

    def _call_all(self, method: str,
                  args_per_shard: Sequence[tuple]) -> list[Any]:
        return [getattr(shard, method)(*args)
                for shard, args in zip(self._shards, args_per_shard)]

    def __repr__(self) -> str:
        return "SerialShardExecutor()"


def _worker_send(connection, payload) -> bool:
    """Send on the worker side; ``False`` when the parent is gone.

    A worker whose parent died (or closed the pipe) has nobody to
    answer; exiting quietly beats dying on an unhandled
    ``BrokenPipeError`` and leaving a corpse in the process table.
    """
    try:
        connection.send(payload)
    except (BrokenPipeError, OSError):
        return False
    return True


def _worker_main(connection, factory: ShardFactory, shard_id: int) -> None:
    """Actor loop of one shard worker.

    Builds the shard from the factory, then serves pickled
    ``(method, args)`` commands until the parent sends ``None``.
    Failures are answered as ``(False, message)`` rather than killing
    the worker, so one bad call doesn't take the shard down.
    """
    try:
        shard = factory(shard_id)
    except BaseException:
        _worker_send(connection, (False, f"shard {shard_id} factory failed:\n"
                                  f"{traceback.format_exc()}"))
        connection.close()
        return
    if not _worker_send(connection, (True, None)):  # ready handshake
        connection.close()
        return
    while True:
        try:
            message = connection.recv()
        except EOFError:
            break
        if message is None:
            break
        method, args = message
        try:
            result = getattr(shard, method)(*args)
            ok = _worker_send(connection, (True, result))
        except BaseException:
            ok = _worker_send(
                connection, (False, f"shard {shard_id}.{method} failed:\n"
                             f"{traceback.format_exc()}"))
        if not ok:
            break
    close = getattr(shard, "close", None)
    if close is not None:
        close()
    connection.close()


class ProcessShardExecutor(ShardExecutor):
    """One worker process per shard, spoken to over a pipe.

    Under the default ``fork`` start method the factory is inherited;
    under ``spawn`` it crosses the process boundary pickled, so it must
    be picklable and self-contained.  The cluster's factory is both: it
    carries a :class:`~repro.events.table.TableDescriptor`, and each
    worker *attaches* the shared-memory event table by segment name
    instead of copying it.  After start, workers receive only picklable
    payloads: queries and table syncs in, answers and reports out.

    ``call_timeout`` (seconds) bounds every receive: a worker that does
    not answer in time is declared hung and its shard marked dead
    (:class:`~repro.errors.ShardTimeoutError`) — the pipe is
    desynchronized at that point, so the shard cannot serve again until
    :meth:`restart_shard` replaces the worker and the pipe together.
    """

    in_process = False

    def __init__(self, start_method: "str | None" = None,
                 call_timeout: "float | None" = None) -> None:
        super().__init__()
        available = multiprocessing.get_all_start_methods()
        if start_method is None:
            if "fork" not in available:
                raise ConfigurationError(
                    "ProcessShardExecutor defaults to the 'fork' start "
                    "method (unavailable on this platform); pass "
                    "start_method='spawn', or use SerialShardExecutor")
            start_method = "fork"
        if start_method not in ("fork", "spawn"):
            raise ConfigurationError(
                f"start_method must be 'fork' or 'spawn', "
                f"got {start_method!r}")
        if start_method not in available:
            raise ConfigurationError(
                f"start method {start_method!r} unavailable on this "
                f"platform (have: {', '.join(available)})")
        if call_timeout is not None and call_timeout <= 0:
            raise ConfigurationError(
                f"call_timeout must be positive, got {call_timeout}")
        self.start_method = start_method
        self.call_timeout = call_timeout
        self._context = multiprocessing.get_context(start_method)
        self._dead: set[int] = set()

    def _start(self, factory: ShardFactory, shard_count: int) -> None:
        self._connections = []
        self._workers = []
        for shard_id in range(shard_count):
            self._spawn_worker(shard_id, factory, append=True)
        for shard_id, connection in enumerate(self._connections):
            self._receive(shard_id, connection)  # ready handshake

    def _spawn_worker(self, shard_id: int, factory: ShardFactory,
                      append: bool) -> None:
        parent_end, worker_end = self._context.Pipe(duplex=True)
        worker = self._context.Process(
            target=_worker_main, args=(worker_end, factory, shard_id),
            name=f"shard-{shard_id}", daemon=True)
        worker.start()
        worker_end.close()
        if append:
            self._connections.append(parent_end)
            self._workers.append(worker)
        else:
            self._connections[shard_id] = parent_end
            self._workers[shard_id] = worker

    def _death_notice(self, shard_id: int, cause: str) -> str:
        """Describe a dead worker, inspecting its exit code / signal."""
        worker = self._workers[shard_id]
        worker.join(timeout=1.0)
        code = worker.exitcode
        if code is None:
            detail = "worker still running"
        elif code < 0:
            try:
                name = _signal.Signals(-code).name
            except ValueError:
                name = f"signal {-code}"
            detail = f"killed by {name}"
        else:
            detail = f"exit code {code}"
        return f"shard worker {shard_id} died ({cause}; {detail})"

    def _send(self, shard_id: int, payload) -> None:
        if shard_id in self._dead:
            raise ShardUnavailableError(
                shard_id, f"shard worker {shard_id} is dead "
                f"(awaiting restart)")
        try:
            self._connections[shard_id].send(payload)
        except (BrokenPipeError, ConnectionError, OSError) as exc:
            self._dead.add(shard_id)
            raise ShardUnavailableError(
                shard_id,
                self._death_notice(shard_id, "pipe broken on send")) from exc

    def _receive(self, shard_id: int, connection) -> Any:
        if self.call_timeout is not None:
            try:
                ready = connection.poll(self.call_timeout)
            except (BrokenPipeError, ConnectionError, OSError) as exc:
                self._dead.add(shard_id)
                raise ShardUnavailableError(
                    shard_id,
                    self._death_notice(shard_id, "pipe closed")) from exc
            if not ready:
                self._dead.add(shard_id)
                raise ShardTimeoutError(
                    shard_id,
                    f"shard worker {shard_id} did not answer within "
                    f"{self.call_timeout}s (hung; pipe desynchronized, "
                    f"restart required)")
        try:
            ok, payload = connection.recv()
        except (EOFError, ConnectionError, OSError) as exc:
            self._dead.add(shard_id)
            raise ShardUnavailableError(
                shard_id,
                self._death_notice(shard_id, "pipe closed")) from exc
        if not ok:
            raise ClusterError(payload)
        return payload

    def _call_all(self, method: str,
                  args_per_shard: Sequence[tuple]) -> list[Any]:
        return self._call_some(
            list(range(self._count)), method, args_per_shard)

    def _call_some(self, shard_ids: list[int], method: str,
                   args_per_shard: Sequence[tuple]) -> list[Any]:
        # Send every command first (each worker holds at most one
        # in-flight command, so sends never deadlock), then collect in
        # shard order — workers compute concurrently in between.  Every
        # response is drained even when one shard fails, or the pipes
        # would desynchronize and the next call read stale results.
        # All failures aggregate into one ClusterCallError carrying the
        # partial results, so supervision can retry just the failed ids.
        sent: list[int] = []
        failures: dict[int, Exception] = {}
        for shard_id, args in zip(shard_ids, args_per_shard):
            try:
                self._send(shard_id, (method, args))
                sent.append(shard_id)
            except ClusterError as exc:
                failures[shard_id] = exc
        results_by_id: dict[int, Any] = {}
        for shard_id in sent:
            try:
                results_by_id[shard_id] = self._receive(
                    shard_id, self._connections[shard_id])
            except ClusterError as exc:
                failures[shard_id] = exc
        results = [results_by_id.get(shard_id) for shard_id in shard_ids]
        if failures:
            raise ClusterCallError(method, shard_ids, results, failures)
        return results

    def _call_one(self, shard_id: int, method: str, args: tuple) -> Any:
        self._send(shard_id, (method, args))
        return self._receive(shard_id, self._connections[shard_id])

    def _alive(self, shard_id: int) -> bool:
        return (shard_id not in self._dead
                and self._workers[shard_id].is_alive())

    def _retire_worker(self, shard_id: int) -> None:
        """Stop one worker unconditionally (terminate, then kill)."""
        connection = self._connections[shard_id]
        if shard_id not in self._dead:
            try:
                connection.send(None)
            except (BrokenPipeError, ConnectionError, OSError):
                self._dead.add(shard_id)
        worker = self._workers[shard_id]
        worker.join(timeout=0.2 if shard_id in self._dead else 5.0)
        if worker.is_alive():
            worker.terminate()
            worker.join(timeout=1.0)
        if worker.is_alive():
            # SIGTERM stays pending for a stopped (SIGSTOP) worker;
            # SIGKILL acts even on stopped processes.
            worker.kill()
            worker.join(timeout=5.0)
        try:
            connection.close()
        except OSError:
            pass

    def _restart(self, shard_id: int, factory: ShardFactory) -> None:
        self._retire_worker(shard_id)
        self._spawn_worker(shard_id, factory, append=False)
        self._dead.discard(shard_id)
        # Ready handshake: a factory failure in the new worker marks the
        # shard dead again and surfaces as a ClusterError.
        try:
            self._receive(shard_id, self._connections[shard_id])
        except ClusterError:
            self._dead.add(shard_id)
            raise

    def _close(self) -> None:
        for shard_id in range(len(getattr(self, "_connections", []))):
            self._retire_worker(shard_id)
        self._connections = []
        self._workers = []
        self._dead = set()

    def __repr__(self) -> str:
        return (f"ProcessShardExecutor(start_method={self.start_method!r}, "
                f"call_timeout={self.call_timeout!r})")
