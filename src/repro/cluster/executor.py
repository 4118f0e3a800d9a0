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
Each worker process and its pipe belong to one :class:`_ShardPipe`, the
only code that holds a shard ``Connection``; its methods raise the
typed errors themselves.  A dead worker (pipe EOF, broken pipe on send)
surfaces as :class:`~repro.errors.ShardUnavailableError`, a hung worker
(with ``call_timeout`` set) as :class:`~repro.errors.ShardTimeoutError`,
and a fan-out where some shards failed as a single
:class:`~repro.errors.ClusterCallError` aggregating *every* failure
with the partial results — all under :class:`~repro.errors.ClusterError`.
A failed pipe stays dead (a timed-out pipe is desynchronized and must
never be reused) until :meth:`ShardExecutor.restart_shard` replaces it
with a new worker built from the factory; the supervision layer
(:mod:`repro.cluster.supervision`) drives that recovery loop.  Workers
exit on their own once the owning process is gone, even one killed by
SIGKILL.
"""

from __future__ import annotations

import multiprocessing
import signal as _signal
import threading
import traceback
import weakref
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable, Sequence
from multiprocessing.connection import Connection
from typing import Any, ClassVar

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


class SerialShardExecutor(ShardExecutor):
    """Shards in this process; every call runs sequentially in the
    calling thread."""

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

    def _call_all(self, method: str,
                  args_per_shard: Sequence[tuple]) -> list[Any]:
        return [getattr(shard, method)(*args)
                for shard, args in zip(self._shards, args_per_shard)]

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

    def __repr__(self) -> str:
        return "SerialShardExecutor()"


class _ShardPipe:
    """One shard worker process and the only handle on its pipe.

    Parent side: the executor holds one per shard and never touches a
    ``Connection`` itself.  :meth:`send` and :meth:`receive` turn every
    pipe failure into a typed shard error here — a dead worker raises
    :class:`~repro.errors.ShardUnavailableError` with its exit code or
    signal, a silent one :class:`~repro.errors.ShardTimeoutError` — and
    a failed pipe stays dead: a timed-out pipe is desynchronized, so
    only a new ``_ShardPipe`` (:meth:`ShardExecutor.restart_shard`)
    serves the shard again.

    Worker side (:meth:`_serve`): any pipe failure means the parent is
    gone, and the worker exits quietly.  A ``fork`` worker inherits the
    parent end of every live pipe, its own included, and closes them
    before serving; otherwise its own reads would never see EOF, and a
    worker whose owner was SIGKILLed would live on, pinning every
    segment it mapped.
    """

    #: Parent ends of this process's live pipes, of every executor: a
    #: fork inherits all of them.
    _parent_ends: "ClassVar[weakref.WeakSet[Connection]]" = weakref.WeakSet()
    _parent_ends_lock: ClassVar[threading.Lock] = threading.Lock()

    def __init__(self, context: Any, shard_id: int,
                 factory: ShardFactory) -> None:
        self.shard_id = shard_id
        self._dead = False
        self._connection, worker_end = context.Pipe(duplex=True)
        with self._parent_ends_lock:
            self._parent_ends.add(self._connection)
            inherited = (tuple(self._parent_ends)
                         if context.get_start_method() == "fork" else ())
        self._process = context.Process(
            target=_ShardPipe._serve,
            args=(worker_end, inherited, factory, shard_id),
            name=f"shard-{shard_id}", daemon=True)
        try:
            self._process.start()
        finally:
            worker_end.close()

    # -- parent side ---------------------------------------------------
    @property
    def pid(self) -> "int | None":
        """The worker's process id."""
        return self._process.pid

    def alive(self) -> bool:
        """Whether the pipe can serve: not failed, worker running."""
        return not self._dead and self._process.is_alive()

    def join(self, timeout: float) -> None:
        """Wait up to ``timeout`` seconds for the worker to exit."""
        self._process.join(timeout=timeout)

    def send(self, payload: Any) -> None:
        """Send one command; a dead worker raises typed."""
        if self._dead:
            raise ShardUnavailableError(
                self.shard_id, f"shard worker {self.shard_id} is dead "
                f"(awaiting restart)")
        try:
            self._connection.send(payload)
        except OSError as exc:
            self._dead = True
            raise ShardUnavailableError(
                self.shard_id,
                self._death_notice("pipe broken on send")) from exc

    def receive(self, timeout: "float | None") -> Any:
        """The worker's next answer; a shard-side failure raises
        :class:`~repro.errors.ClusterError` and keeps the pipe usable."""
        try:
            if timeout is not None and not self._connection.poll(timeout):
                self._dead = True
                raise ShardTimeoutError(
                    self.shard_id,
                    f"shard worker {self.shard_id} did not answer within "
                    f"{timeout}s (hung; pipe desynchronized, restart "
                    f"required)")
            ok, payload = self._connection.recv()
        except (EOFError, OSError) as exc:
            self._dead = True
            raise ShardUnavailableError(
                self.shard_id, self._death_notice("pipe closed")) from exc
        if not ok:
            raise ClusterError(payload)
        return payload

    def retire(self) -> None:
        """Stop the worker unconditionally (stop command, then SIGTERM,
        then SIGKILL) and close the pipe.  Idempotent."""
        if not self._dead:
            try:
                self._connection.send(None)
            except OSError:
                self._dead = True
        self.join(0.2 if self._dead else 5.0)
        self._dead = True
        if self._process.is_alive():
            self._process.terminate()
            self.join(1.0)
        if self._process.is_alive():
            # SIGTERM stays pending for a stopped (SIGSTOP) worker;
            # SIGKILL acts even on stopped processes.
            self._process.kill()
            self.join(5.0)
        self._connection.close()
        with self._parent_ends_lock:
            self._parent_ends.discard(self._connection)

    def _death_notice(self, cause: str) -> str:
        """Describe a dead worker, inspecting its exit code / signal."""
        self.join(1.0)
        code = self._process.exitcode
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
        return f"shard worker {self.shard_id} died ({cause}; {detail})"

    # -- worker side ---------------------------------------------------
    @staticmethod
    def _serve(connection: "Connection", inherited: "tuple[Connection, ...]",
               factory: ShardFactory, shard_id: int) -> None:
        """Actor loop of one shard worker.

        Builds the shard from the factory, then answers pickled
        ``(method, args)`` commands until the parent sends ``None`` or
        goes away.  Failures are answered as ``(False, message)`` rather
        than killing the worker, so one bad call doesn't take the shard
        down.
        """
        for end in inherited:
            end.close()
        try:
            shard = factory(shard_id)
        except BaseException:
            _ShardPipe._reply(connection, (
                False, f"shard {shard_id} factory failed:\n"
                f"{traceback.format_exc()}"))
            connection.close()
            return
        serving = _ShardPipe._reply(connection, (True, None))  # ready
        while serving:
            try:
                message = connection.recv()
            except (EOFError, OSError):
                break  # the parent is gone
            if message is None:
                break
            method, args = message
            try:
                serving = _ShardPipe._reply(
                    connection, (True, getattr(shard, method)(*args)))
            except BaseException:
                serving = _ShardPipe._reply(connection, (
                    False, f"shard {shard_id}.{method} failed:\n"
                    f"{traceback.format_exc()}"))
        close = getattr(shard, "close", None)
        if close is not None:
            close()
        connection.close()

    @staticmethod
    def _reply(connection: "Connection", payload: Any) -> bool:
        """Send one answer; ``False`` when the parent is gone."""
        try:
            connection.send(payload)
        except OSError:
            return False
        return True


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
        self._pipes: list[_ShardPipe] = []

    def _start(self, factory: ShardFactory, shard_count: int) -> None:
        for shard_id in range(shard_count):
            self._pipes.append(_ShardPipe(self._context, shard_id, factory))
        for pipe in self._pipes:
            pipe.receive(self.call_timeout)  # ready handshake

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
                self._pipes[shard_id].send((method, args))
                sent.append(shard_id)
            except ClusterError as exc:
                failures[shard_id] = exc
        results_by_id: dict[int, Any] = {}
        for shard_id in sent:
            try:
                results_by_id[shard_id] = self._pipes[shard_id].receive(
                    self.call_timeout)
            except ClusterError as exc:
                failures[shard_id] = exc
        results = [results_by_id.get(shard_id) for shard_id in shard_ids]
        if failures:
            raise ClusterCallError(method, shard_ids, results, failures)
        return results

    def _call_one(self, shard_id: int, method: str, args: tuple) -> Any:
        pipe = self._pipes[shard_id]
        pipe.send((method, args))
        return pipe.receive(self.call_timeout)

    def _alive(self, shard_id: int) -> bool:
        return self._pipes[shard_id].alive()

    def _restart(self, shard_id: int, factory: ShardFactory) -> None:
        self._pipes[shard_id].retire()
        pipe = self._pipes[shard_id] = _ShardPipe(
            self._context, shard_id, factory)
        try:
            pipe.receive(self.call_timeout)  # ready handshake
        except ClusterError:
            # A worker whose factory failed has exited: the shard stays
            # dead until the next restart.
            pipe.retire()
            raise

    def _close(self) -> None:
        for pipe in self._pipes:
            pipe.retire()
        self._pipes = []

    def __repr__(self) -> str:
        return (f"ProcessShardExecutor(start_method={self.start_method!r}, "
                f"call_timeout={self.call_timeout!r})")
