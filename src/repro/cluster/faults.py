"""Deterministic fault injection for the cluster layer.

Chaos testing is only convincing when it is *reproducible*: a fault
that fires "sometime during the workload" proves nothing bitwise.  This
module injects failures at **scripted dispatch indices** instead — a
:class:`FaultPlan` lists exactly which shard dies (or hangs, or
corrupts its reply) on exactly which call, and the
:class:`FaultInjectingExecutor` wrapper fires each fault at the dispatch
boundary, *before* the command reaches the shard.  Both sides of a
chaos-equivalence test therefore see identical operation sequences: the
faulted cluster performs the same merges, the same query slices and the
same cache mutations as the uninterrupted control — plus the injected
deaths — so "recovery restored bitwise-identical state" is a checkable
equality, not a statistical claim.

Fault kinds:

* ``"kill"`` — process shards: the worker is SIGKILLed and reaped
  before the dispatch, so the executor observes a deterministic dead
  pipe.  In-process shards: the shard is marked *simulated-dead*; every
  dispatch raises :class:`~repro.errors.ShardUnavailableError` until
  :meth:`FaultInjectingExecutor.restart_shard` rebuilds the shard object
  from the factory — faithfully losing its warm state, like a real
  crash.
* ``"hang"`` — process shards: the worker is SIGSTOPped; the dispatch
  then times out (the inner executor must have ``call_timeout`` set).
  In-process shards: the dispatch raises
  :class:`~repro.errors.ShardTimeoutError` directly and the shard is
  marked dead (a timed-out pipe may never be reused — same contract as
  the real executor).
* ``"corrupt"`` — the shard's reply is discarded and replaced with a
  plain :class:`~repro.errors.ClusterError`: a *non-transient* failure,
  which supervision must propagate rather than retry (retrying
  corruption would launder wrong bytes into the serving path).
"""

from __future__ import annotations

import contextlib
import os
import signal
from dataclasses import dataclass
from collections.abc import Iterable, Sequence
from typing import Any

from repro.cluster.executor import ShardExecutor, ShardFactory
from repro.errors import (
    ClusterCallError,
    ClusterError,
    ConfigurationError,
    ShardTimeoutError,
    ShardUnavailableError,
)

FAULT_KINDS = ("kill", "hang", "corrupt")


@dataclass(frozen=True, slots=True)
class Fault:
    """One scripted failure.

    Attributes:
        shard_id: The shard the fault targets.
        kind: ``"kill"``, ``"hang"`` or ``"corrupt"`` (see module docs).
        method: Only dispatches of this method count (None: any method).
        call_index: Fire on the ``call_index``-th *matching* dispatch to
            that shard (0-based), counted from plan construction; every
            matching dispatch — including ones where another fault fired
            — advances the count.
    """

    shard_id: int
    kind: str = "kill"
    method: "str | None" = None
    call_index: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"fault kind must be one of {FAULT_KINDS}, "
                f"got {self.kind!r}")
        if self.shard_id < 0:
            raise ConfigurationError(
                f"shard_id must be >= 0, got {self.shard_id}")
        if self.call_index < 0:
            raise ConfigurationError(
                f"call_index must be >= 0, got {self.call_index}")


class FaultPlan:
    """An ordered script of faults, consumed as dispatches match.

    Deterministic by construction: matching is a pure function of the
    dispatch sequence (shard id + method name), never of timing.
    """

    def __init__(self, faults: Iterable[Fault] = ()) -> None:
        self._pending: list[list] = [
            [fault, fault.call_index] for fault in faults]
        #: Faults that have fired, in firing order.
        self.fired: list[Fault] = []

    @property
    def pending(self) -> list[Fault]:
        """Faults not yet fired, in plan order."""
        return [fault for fault, _ in self._pending]

    @property
    def exhausted(self) -> bool:
        """Whether every scripted fault has fired."""
        return not self._pending

    def take(self, shard_id: int, method: str) -> "Fault | None":
        """The fault firing on this dispatch, if any (consumes it)."""
        hit: "Fault | None" = None
        for entry in self._pending:
            fault, remaining = entry
            if fault.shard_id != shard_id:
                continue
            if fault.method is not None and fault.method != method:
                continue
            if remaining == 0 and hit is None:
                hit = fault
                entry[1] = -1  # consumed
            else:
                entry[1] = remaining - 1 if remaining > 0 else 0
        if hit is not None:
            self._pending = [entry for entry in self._pending
                             if entry[1] >= 0]
            self.fired.append(hit)
        return hit

    def __len__(self) -> int:
        return len(self._pending)

    def __repr__(self) -> str:
        return (f"FaultPlan(pending={len(self._pending)}, "
                f"fired={len(self.fired)})")


class FaultInjectingExecutor:
    """Wraps any executor, firing a :class:`FaultPlan` at its boundary.

    Exposes the full :class:`~repro.cluster.executor.ShardExecutor`
    dispatch surface by delegation, so it drops into
    ``ShardedLocater(executor=...)`` (and under a
    :class:`~repro.cluster.supervision.ShardSupervisor`) unchanged.
    Failures are reported with the real executor's types and — for
    fan-outs — the real aggregation contract
    (:class:`~repro.errors.ClusterCallError` with partial results), so
    supervision cannot tell injected faults from genuine ones.
    """

    def __init__(self, inner: ShardExecutor, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan
        if not inner.in_process and \
                getattr(inner, "call_timeout", None) is None and \
                any(fault.kind == "hang" for fault in plan.pending):
            raise ConfigurationError(
                "hang faults against a process executor need "
                "call_timeout set on it, or the hung dispatch would "
                "block forever")
        self._sim_dead: set[int] = set()

    # -- delegated surface ---------------------------------------------
    @property
    def in_process(self) -> bool:
        return self.inner.in_process

    @property
    def shard_count(self) -> int:
        return self.inner.shard_count

    @property
    def shards(self) -> list[Any]:
        return self.inner.shards

    def start(self, factory: ShardFactory, shard_count: int) -> None:
        self.inner.start(factory, shard_count)

    def close(self) -> None:
        self.inner.close()

    def alive(self, shard_id: int) -> bool:
        return shard_id not in self._sim_dead and self.inner.alive(shard_id)

    def restart_shard(self, shard_id: int,
                      factory: "ShardFactory | None" = None) -> None:
        # Rebuilding the shard object (in-process) / worker (process)
        # from the factory loses its warm state exactly like a real
        # crash would; clearing the simulated-death mark afterwards
        # mirrors the real executor clearing its dead set.
        self.inner.restart_shard(shard_id, factory)
        self._sim_dead.discard(shard_id)

    def __getattr__(self, name: str) -> Any:
        # Everything else (start_method, call_timeout, repr helpers...)
        # reads through to the wrapped executor.
        return getattr(self.inner, name)

    # -- fault application ---------------------------------------------
    def _unavailable(self, shard_id: int) -> ShardUnavailableError:
        return ShardUnavailableError(
            shard_id, f"shard worker {shard_id} died (injected kill)")

    def _fire(self, fault: Fault) -> "Exception | None":
        """Apply one fault; the error to report, or None (process kill /
        hang, where the *inner* executor detects the dead or silent
        worker and reports with its own exit-code inspection)."""
        if fault.kind == "corrupt":
            return ClusterError(
                f"shard {fault.shard_id} returned a corrupted reply "
                f"(injected fault)")
        if self.inner.in_process:
            self._sim_dead.add(fault.shard_id)
            if fault.kind == "hang":
                return ShardTimeoutError(
                    fault.shard_id,
                    f"shard worker {fault.shard_id} did not answer "
                    f"(injected hang; restart required)")
            return self._unavailable(fault.shard_id)
        pipe = self.inner._pipes[fault.shard_id]
        if fault.kind == "kill":
            with contextlib.suppress(ProcessLookupError):
                os.kill(pipe.pid, signal.SIGKILL)
            pipe.join(5.0)  # reaped → deterministic dead pipe
        else:  # hang
            with contextlib.suppress(ProcessLookupError):
                os.kill(pipe.pid, signal.SIGSTOP)
        return None

    def _emulated_failure(self, shard_id: int) -> "Exception | None":
        """The standing failure of a simulated-dead in-process shard."""
        if shard_id in self._sim_dead:
            return ShardUnavailableError(
                shard_id, f"shard worker {shard_id} is dead "
                f"(awaiting restart)")
        return None

    # -- dispatch ------------------------------------------------------
    def call_one(self, shard_id: int, method: str, *args: Any) -> Any:
        error = self._emulated_failure(shard_id)
        if error is None:
            fault = self.plan.take(shard_id, method)
            if fault is not None:
                error = self._fire(fault)
        if error is not None:
            raise error
        return self.inner.call_one(shard_id, method, *args)

    def call_all(self, method: str,
                 args_per_shard: "Sequence[tuple] | None" = None
                 ) -> list[Any]:
        count = self.inner.shard_count
        if args_per_shard is None:
            args_per_shard = [()] * count
        return self.call_some(list(range(count)), method, args_per_shard)

    def call_some(self, shard_ids: Iterable[int], method: str,
                  args_per_shard: "Sequence[tuple] | None" = None
                  ) -> list[Any]:
        shard_ids = list(shard_ids)
        if args_per_shard is None:
            args_per_shard = [()] * len(shard_ids)
        # Decide and apply every firing fault before any dispatch, so
        # the pattern of failures in one fan-out is a pure function of
        # the plan (matching the real executor's send-all-then-collect
        # shape, where a kill before the fan-out fails that shard's
        # send deterministically).
        failures: dict[int, Exception] = {}
        for shard_id in shard_ids:
            error = self._emulated_failure(shard_id)
            if error is None:
                fault = self.plan.take(shard_id, method)
                if fault is not None:
                    error = self._fire(fault)
            if error is not None:
                failures[shard_id] = error
        live = [(shard_id, args)
                for shard_id, args in zip(shard_ids, args_per_shard)
                if shard_id not in failures]
        results_by_id: dict[int, Any] = {}
        if self.inner.in_process:
            # Emulate the process executor's aggregation contract over
            # the in-process inner, shard-side exceptions included.
            for shard_id, args in live:
                try:
                    results_by_id[shard_id] = self.inner.call_one(
                        shard_id, method, *args)
                except Exception as exc:
                    failures[shard_id] = exc
        elif live:
            try:
                out = self.inner.call_some(
                    [shard_id for shard_id, _ in live], method,
                    [args for _, args in live])
                results_by_id = {shard_id: result for (shard_id, _), result
                                 in zip(live, out)}
            except ClusterCallError as exc:
                for shard_id, result in zip(exc.shard_ids, exc.results):
                    if shard_id in exc.failures:
                        failures[shard_id] = exc.failures[shard_id]
                    else:
                        results_by_id[shard_id] = result
        results = [results_by_id.get(shard_id) for shard_id in shard_ids]
        if failures:
            raise ClusterCallError(method, shard_ids, results, failures)
        return results

    def __enter__(self) -> "FaultInjectingExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"FaultInjectingExecutor({self.inner!r}, plan={self.plan!r})"
