"""Shard supervision: failure detection, recovery, quarantine.

The executor layer (:mod:`repro.cluster.executor`) *detects* failures —
a dead worker surfaces as :class:`~repro.errors.ShardUnavailableError`,
a hung one as :class:`~repro.errors.ShardTimeoutError`, a fan-out with
failures as one :class:`~repro.errors.ClusterCallError` carrying the
partial results.  This module *reacts*: the
:class:`ShardSupervisor` wraps an executor's dispatch surface and turns
transient shard deaths into deterministic resurrections.

Why recovery can be exact here: every shard's serving state is a pure
function of the event log it reads (the bitwise-equivalence invariant
the cluster suites enforce), except the §5 cache, whose contents depend
on query *history*.  So resurrection is: rebuild the shard from the
factory (an in-process shard reads the live table; a process worker
attaches the owner's current segments; models retrain lazily on the
next batch pre-pass), restore the cache from the supervisor's last
checkpoint, and re-dispatch *only the failed shard's slice* of the
interrupted call — never the survivors', which would double-count their
cache counters.  The chaos suite proves post-recovery answers and summed
cache counters bitwise-identical to an uninterrupted cluster.

The determinism caveat, stated honestly: checkpoints are taken at
operation boundaries, so the exactness proof covers crashes *between*
operations and crashes that destroy a worker mid-call before it mutated
anything the parent can see (always true for process shards — their
state is private and dies with them).  A crash landing exactly between
an operation completing and its checkpoint being taken loses that one
operation's cache delta: answers stay correct (the cache is an
optimization), but counters may drift from the uninterrupted run.

No wall-clock enters any answer path (RL002): backoff delays come from
a fixed, configured schedule, and recovery latency is *measured* with
``time.perf_counter`` for observability only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Sequence
from typing import Any

from repro.cluster.executor import ShardExecutor, ShardFactory
from repro.errors import (
    ClusterCallError,
    ClusterError,
    ConfigurationError,
    ShardQuarantinedError,
    ShardTimeoutError,
    ShardUnavailableError,
)

#: Failures that mean "the worker is gone / wedged" rather than "the
#: shard code raised" — the only failures recovery may absorb.  A
#: shard-side exception (a bug) must surface, not be retried.
TRANSIENT_ERRORS = (ShardUnavailableError, ShardTimeoutError)

#: Methods that must *not* be re-dispatched to a freshly resurrected
#: shard: its factory already rebuilt it from the merged authoritative
#: table (an attached worker maps the current segments), so replaying
#: the table sync would apply it against the wrong base generation.
#: The cluster ignores this fan-out's per-shard results, so the skipped
#: slot is safe.
SKIP_AFTER_RESTART = frozenset({"apply_table_sync"})


@dataclass(frozen=True, slots=True)
class RecoveryPolicy:
    """How a cluster responds to shard failures.

    Attributes:
        max_restarts: Restart budget *per shard*; a shard that fails
            after exhausting it is quarantined (its devices degrade per
            ``degraded``; every other shard keeps serving untouched).
        backoff: Deterministic delay schedule in seconds: restart k of a
            shard sleeps ``backoff[min(k, len-1)]`` first.  A fixed
            schedule, not jittered wall-clock — answer paths stay
            deterministic (RL002).
        degraded: What a quarantined shard's devices get —
            ``"error"`` raises :class:`~repro.errors.ShardQuarantinedError`
            per query; ``"fallback"`` serves them from a parent-side
            cache-less ``Locater`` over the authoritative table (full
            answer quality, no warm state).

    The policy holds no timeout: a hung process shard is detected by
    its executor's own ``call_timeout``.  Nor does it choose whether
    caches are checkpointed: the cluster sets that from
    ``use_caching`` (see :class:`ShardSupervisor`).
    """

    max_restarts: int = 2
    backoff: tuple[float, ...] = (0.0, 0.05, 0.2)
    degraded: str = "error"

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ConfigurationError(
                f"max_restarts must be >= 0, got {self.max_restarts}")
        if any(delay < 0 for delay in self.backoff):
            raise ConfigurationError(
                f"backoff delays must be >= 0, got {self.backoff}")
        if self.degraded not in ("error", "fallback"):
            raise ConfigurationError(
                f"degraded must be 'error' or 'fallback', "
                f"got {self.degraded!r}")

    def delay_for(self, restart_index: int) -> float:
        """Backoff before restart number ``restart_index`` (0-based)."""
        if not self.backoff:
            return 0.0
        return self.backoff[min(restart_index, len(self.backoff) - 1)]


@dataclass(frozen=True, slots=True)
class RecoveryEvent:
    """One recovery episode, for observability and the recovery bench.

    Attributes:
        shard_id: The shard that failed.
        method: The dispatch that surfaced the failure.
        error: The failure, rendered (the exception object may hold
            unpicklable context).
        restarts: The shard's cumulative restart count after this
            episode.
        outcome: ``"recovered"`` or ``"quarantined"``.
        duration_seconds: Wall time of the episode (detection to
            recovered shard), measured with ``perf_counter`` —
            observability only, never an answer-path input.
    """

    shard_id: int
    method: str
    error: str
    restarts: int
    outcome: str
    duration_seconds: float


class ShardSupervisor:
    """Retry/restart/quarantine loop over an executor's dispatch surface.

    Args:
        executor: The started executor to supervise.  The supervisor
            never owns its lifecycle — the cluster still closes it.
        policy: The :class:`RecoveryPolicy` (default: defaults).
        factory_provider: Called at each restart for a *fresh* shard
            factory (None: the executor reuses the factory it was
            started with).  The attached-table cluster needs this — a
            resurrection must map the table's *current* segments, not
            the ones described at start time.
        checkpoints: Snapshot each shard's §5 cache state after
            successful operations, so resurrection restores contents
            and hit/miss counters bitwise (one extra round-trip per
            shard per operation).  The cluster turns this off when
            caching is off: the export round-trips would all answer
            None.
    """

    def __init__(self, executor: ShardExecutor,
                 policy: "RecoveryPolicy | None" = None,
                 factory_provider: "Callable[[], ShardFactory] | None" = None,
                 checkpoints: bool = True) -> None:
        self._executor = executor
        self._policy = policy if policy is not None else RecoveryPolicy()
        self._factory_provider = factory_provider
        self._checkpoints_enabled = checkpoints
        self._restarts: dict[int, int] = {}
        self._quarantined: set[int] = set()
        self._checkpoints: dict[int, Any] = {}
        #: Every recovery episode, in order (the recovery bench reads
        #: latency stats straight off this).
        self.events: list[RecoveryEvent] = []

    # ------------------------------------------------------------------
    @property
    def policy(self) -> RecoveryPolicy:
        """The active recovery policy."""
        return self._policy

    @property
    def quarantined(self) -> frozenset[int]:
        """Shards whose restart budget is exhausted (devices offline)."""
        return frozenset(self._quarantined)

    @property
    def restarts(self) -> dict[int, int]:
        """Cumulative restart count per shard (only shards that failed)."""
        return dict(self._restarts)

    def ping(self) -> list[bool]:
        """Liveness per shard: can it answer a call right now?

        A probe, not a recovery trigger — a dead shard reads ``False``
        here and is resurrected by the next supervised call that needs
        it.  Quarantined shards read ``False`` forever.
        """
        alive = []
        for shard_id in range(self._executor.shard_count):
            if shard_id in self._quarantined:
                alive.append(False)
                continue
            try:
                self._executor.call_one(shard_id, "ping")
                alive.append(True)
            except TRANSIENT_ERRORS:
                alive.append(False)
        return alive

    # ------------------------------------------------------------------
    # Supervised dispatch
    # ------------------------------------------------------------------
    def call_one(self, shard_id: int, method: str, *args: Any) -> Any:
        """Dispatch to one shard, recovering it across transient faults.

        Raises :class:`~repro.errors.ShardQuarantinedError` when the
        shard is (or becomes) quarantined.  For
        :data:`SKIP_AFTER_RESTART` methods a successful recovery returns
        None instead of re-dispatching (see that constant's rationale).
        """
        if shard_id in self._quarantined:
            raise ShardQuarantinedError(
                shard_id, f"shard {shard_id} is quarantined "
                f"(restart budget of {self._policy.max_restarts} exhausted)")
        while True:
            try:
                return self._executor.call_one(shard_id, method, *args)
            except TRANSIENT_ERRORS as exc:
                if not self._recover(shard_id, method, exc):
                    raise ShardQuarantinedError(
                        shard_id,
                        f"shard {shard_id} quarantined after "
                        f"{self._policy.max_restarts} restart(s): {exc}"
                    ) from exc
                if method in SKIP_AFTER_RESTART:
                    return None

    def call_all(self, method: str,
                 args_per_shard: "Sequence[tuple] | None" = None
                 ) -> list[Any]:
        """Fan out to every non-quarantined shard, recovering failures.

        Returns one slot per shard in shard order.  A slot is None when
        its shard is quarantined (before or during the call) or when
        the method is in :data:`SKIP_AFTER_RESTART` and the shard had to
        be resurrected mid-call.  Survivor slots are computed exactly
        once — failed shards are retried *alone*, so survivors' cache
        counters never double-count.
        """
        count = self._executor.shard_count
        if args_per_shard is None:
            args_per_shard = [()] * count
        if len(args_per_shard) != count:
            raise ConfigurationError(
                f"need {count} argument tuples, got {len(args_per_shard)}")
        results: list[Any] = [None] * count
        pending = [(shard_id, args)
                   for shard_id, args in enumerate(args_per_shard)
                   if shard_id not in self._quarantined]
        while pending:
            ids = [shard_id for shard_id, _ in pending]
            try:
                out = self._executor.call_some(
                    ids, method, [args for _, args in pending])
            except ClusterCallError as exc:
                args_by_id = dict(pending)
                for shard_id, result in zip(exc.shard_ids, exc.results):
                    if shard_id not in exc.failures:
                        results[shard_id] = result
                retry = []
                for shard_id in sorted(exc.failures):
                    error = exc.failures[shard_id]
                    if not isinstance(error, TRANSIENT_ERRORS):
                        # A shard-side exception is a bug, not an
                        # outage; the aggregate (with partial results)
                        # surfaces to the caller.
                        raise
                    if self._recover(shard_id, method, error) and \
                            method not in SKIP_AFTER_RESTART:
                        retry.append((shard_id, args_by_id[shard_id]))
                pending = retry
            else:
                for shard_id, result in zip(ids, out):
                    results[shard_id] = result
                pending = []
        return results

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------
    def checkpoint(self, shard_ids: "Iterable[int] | None" = None) -> None:
        """Snapshot shards' cache state (post-operation).

        Called by the cluster after each successful cache-mutating
        operation, scoped to the shards that operation could have
        mutated (default: all).  A shard found dead here is resurrected
        first (its previous checkpoint still describes its restored
        state, so re-exporting after recovery stays consistent).
        """
        if not self._checkpoints_enabled:
            return
        targets = sorted(shard_ids) if shard_ids is not None \
            else range(self._executor.shard_count)
        for shard_id in targets:
            if shard_id in self._quarantined:
                continue
            try:
                state = self.call_one(shard_id, "export_cache_state")
            except ShardQuarantinedError:
                continue
            if state is not None:
                self._checkpoints[shard_id] = state

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _recover(self, shard_id: int, method: str,
                 error: Exception) -> bool:
        """Resurrect one shard; False (and quarantine) on budget exhaust.

        Deterministic sequence: deterministic backoff sleep → rebuild
        the worker/shard from the factory → restore the last cache
        checkpoint.  A restart that itself fails (e.g. the replacement
        dies during handshake) consumes budget and loops.
        """
        started = time.perf_counter()
        while True:
            done = self._restarts.get(shard_id, 0)
            if done >= self._policy.max_restarts:
                self._quarantined.add(shard_id)
                self.events.append(RecoveryEvent(
                    shard_id=shard_id, method=method, error=str(error),
                    restarts=done, outcome="quarantined",
                    duration_seconds=time.perf_counter() - started))
                return False
            delay = self._policy.delay_for(done)
            if delay > 0:
                time.sleep(delay)
            self._restarts[shard_id] = done + 1
            try:
                factory = self._factory_provider() \
                    if self._factory_provider is not None else None
                self._executor.restart_shard(shard_id, factory)
                state = self._checkpoints.get(shard_id)
                if state is not None:
                    self._executor.call_one(
                        shard_id, "import_cache_state", state)
            except ClusterError as exc:
                error = exc
                continue
            self.events.append(RecoveryEvent(
                shard_id=shard_id, method=method, error=str(error),
                restarts=self._restarts[shard_id], outcome="recovered",
                duration_seconds=time.perf_counter() - started))
            return True

    def __repr__(self) -> str:
        return (f"ShardSupervisor(policy={self._policy!r}, "
                f"quarantined={sorted(self._quarantined)!r})")
