"""``ShardedLocater``: one query surface over N independent shards.

Every shard serves from the whole event log, and the cluster partitions
*serving ownership* by its built-in
:class:`~repro.cluster.router.ComponentAffinityRouter`: each device's
queries, trained coarse models, cleaned-answer storage namespace and
cache warm state live on exactly one shard.  The whole log is not an
implementation shortcut — it is what makes the cluster *correct*:
cleaning couples devices through co-location (neighbor discovery,
device-affinity mining and the population aggregate all read the whole
log), so a shard serving from a partial log would change answers.  It
costs one copy: in-process shards read the cluster's table object, and
process shards attach its shared-memory segments read-only.  What
scales out is everything downstream of the log: model training,
gap-feature extraction, fine-grained inference, caching and answer
storage — the dominant costs.

The serving contract is the repo's strongest invariant, extended to the
cluster: with any shard count and any executor, answers are **bitwise
identical** to a lone :class:`~repro.system.locater.Locater` over the
same table — *with the §5 caching engine on as well*.  With caching
off, answers are pure functions of the table and devices spread by a
stable hash of their MAC.  With caching on, the cluster routes every
device by its co-presence component: the global affinity graph couples
devices only within connected components of the potential co-presence
graph, so co-locating whole components makes each shard's cache
perform the same edge reads and writes, in the same order, as the lone
system (aggregated cache counters included).  When components merge at
an ingest boundary, the cluster migrates the re-keyed devices' recorded
edges and clears their stale namespaced answers (see
:meth:`ShardedLocater._migrate_moved`).  The equivalence suite in
``tests/integration/test_cluster_equivalence.py`` enforces all of this
on batch and streaming workloads.

The public surface mirrors ``Locater`` (``locate``, ``locate_batch``,
``locate_query``, ``make_batch_state``, ``on_ingest``, ``table``), so
:class:`~repro.system.streaming.StreamingSession`, the CLI, analytics
and the eval runner work unchanged against a cluster; ``ingest`` is the
cluster-native entry point that also works with process shards.
"""

from __future__ import annotations

import contextlib
import weakref
from dataclasses import dataclass
from collections.abc import Iterable, Sequence

from repro.cluster.executor import (
    ProcessShardExecutor,
    SerialShardExecutor,
    ShardExecutor,
    ShardFactory,
)
from repro.cluster.router import ComponentAffinityRouter, partition_events
from repro.cluster.shard import Shard
from repro.cluster.supervision import (
    RecoveryEvent,
    RecoveryPolicy,
    ShardSupervisor,
)
from repro.errors import (
    ClusterError,
    ConfigurationError,
    ShardQuarantinedError,
)
from repro.events.columns import HeapColumnStore, SharedMemoryColumnStore
from repro.events.event import ConnectivityEvent
from repro.events.table import EventTable, TableDescriptor
from repro.space.building import Building
from repro.space.metadata import SpaceMetadata
from repro.system.config import LocaterConfig
from repro.system.ingestion import IngestionEngine, IngestReport
from repro.system.locater import (
    BatchState,
    InvalidationSummary,
    Locater,
    LocationAnswer,
)
from repro.system.planner import DEFAULT_BUCKET_SECONDS
from repro.system.query import LocationQuery
from repro.system.storage import StorageEngine
from repro.system.streaming import prune_batch_state


@dataclass(frozen=True, slots=True)
class ClusterCacheStats:
    """Cluster-wide caching counters: per shard and aggregated.

    Attributes:
        per_shard: Each shard's :meth:`CachingEngine.stats
            <repro.cache.engine.CachingEngine.stats>` dict, in shard
            order (None where that shard runs with caching off).
        total: The None-safe sum over the per-shard counters — the
            shard-order-insensitive quantity equivalence checks compare
            against a lone system's ``cache.stats()``; None when every
            shard has caching off.
    """

    per_shard: "tuple[dict[str, int] | None, ...]"
    total: "dict[str, int] | None"

    def __len__(self) -> int:
        return len(self.per_shard)


@dataclass(frozen=True, slots=True)
class ClusterIngestReport:
    """What one :meth:`ShardedLocater.ingest` call changed, per shard.

    Attributes:
        total: The merge-once report over the cluster's authoritative
            table — exactly what a lone system's engine would publish.
        shard_reports: The router's partition of ``total``: per shard,
            the events routed to it and the changed *owned* devices.
            Counts sum to ``total.count``; changed maps union to
            ``total.changed``.
    """

    total: IngestReport
    shard_reports: tuple[IngestReport, ...]

    @property
    def count(self) -> int:
        """Events ingested by this call (all shards)."""
        return self.total.count

    @property
    def generation(self) -> int:
        """Table generation after the merge."""
        return self.total.generation

    @property
    def macs(self) -> frozenset[str]:
        """All devices whose logs changed."""
        return self.total.macs


class _NeighborsFanout:
    """Invalidation hooks over every shard's neighbor index."""

    def __init__(self, states: "Sequence[BatchState]") -> None:
        self._indexes = [s.neighbors for s in states]

    def invalidate_all(self) -> int:
        return sum(index.invalidate_all() for index in self._indexes)

    def invalidate_interval(self, interval, slack: float = 0.0) -> int:
        return sum(index.invalidate_interval(interval, slack=slack)
                   for index in self._indexes)


class ClusterBatchState:
    """Per-shard :class:`BatchState` bundle with a ``BatchState`` surface.

    A :class:`~repro.system.streaming.StreamingSession` holds one of
    these when serving a cluster: ``drop_devices``, the neighbor
    invalidation hooks and ``memo_dicts`` fan out to every shard's
    state, so the session's pruning logic works unchanged.
    """

    def __init__(self, shard_states: "tuple[BatchState, ...]") -> None:
        self.shard_states = shard_states
        self.neighbors = _NeighborsFanout(shard_states)

    def drop_device(self, mac: str) -> None:
        """Forget every memo involving one device, on every shard."""
        self.drop_devices({mac})

    def drop_devices(self, macs: "set[str]") -> None:
        """Forget memos involving the given devices, on every shard."""
        for state in self.shard_states:
            state.drop_devices(macs)

    def memo_dicts(self) -> list[dict]:
        """Every memo dict across every shard (see BatchState.memo_dicts).

        Freshly resolved per call — the drop paths rebind the dicts —
        and flattened per shard, so a trim bound applies to each
        shard's memo individually.
        """
        return [memo for state in self.shard_states
                for memo in state.memo_dicts()]

    def reset(self) -> None:
        """Forget everything — the in-place equivalent of a fresh state.

        Used on full invalidations: every memo dict is emptied and every
        neighbor snapshot dropped, so serving from this state afterwards
        behaves exactly like serving from ``make_batch_state()`` output
        (the snapshot bound survives; it lives on the neighbor indexes).
        """
        for memo in self.memo_dicts():
            memo.clear()
        self.neighbors.invalidate_all()


class _AttachedShardFactory:
    """Picklable shard factory for process workers: *attach* the table.

    It carries a :class:`~repro.events.table.TableDescriptor` — segment
    names, registry order, generations — and each worker maps the
    owner's shared-memory segments read-only, so N workers hold one
    physical copy of the log.  Picklable and self-contained, so it
    crosses a ``spawn`` boundary as well as a ``fork``.  The shard gets
    a streaming session whose state is advanced by
    :meth:`Shard.apply_table_sync` fan-outs.
    """

    def __init__(self, building: Building, metadata: SpaceMetadata,
                 config: "LocaterConfig | None",
                 descriptor: TableDescriptor) -> None:
        self.building = building
        self.metadata = metadata
        self.config = config
        self.descriptor = descriptor

    def __call__(self, shard_id: int) -> Shard:
        table = EventTable.attach(self.descriptor)
        return Shard(shard_id, Locater(self.building, self.metadata, table,
                                       config=self.config))


class ShardedLocater:
    """N-shard cluster with the single-system query surface.

    Args:
        building: Space model (a single building or a merged campus).
        metadata: Per-device preferred-room metadata.
        table: The authoritative event table.  In-process shards share
            this object.  Process shards attach its columns read-only
            from shared memory: a heap table moves into a
            :class:`~repro.events.columns.SharedMemoryColumnStore` here
            and back to a :class:`~repro.events.columns.HeapColumnStore`
            on :meth:`close` (or when construction fails), so the
            cluster unlinks every segment it created and the table
            outlives it, bitwise unchanged.  A table that arrives on a
            shared store stays the caller's to close.
        shard_count: Number of shards.
        executor: Shard placement and call dispatch (default
            :class:`~repro.cluster.executor.SerialShardExecutor`).  The
            cluster owns it from here: ``close`` tears it down.
        config: Pipeline configuration shared by every shard.  It also
            picks the routes: with caching on (the default) every device
            routes by its co-presence component, bound from ``table``
            here and re-bound at every ingest, so each component's §5
            cache lives whole on one shard; with caching off every
            device routes by ``stable_hash(mac) % shard_count`` for
            good (see :mod:`repro.cluster.router`).
        storage: Optional shared backend; shard ``i`` persists its
            answers under namespace ``"shard<i>"`` and its slice of the
            dirty event stream (globally unique ids, stored once).
            Incompatible with process executors, whose shards cannot
            reach the caller's backend.
        recovery: Opt into fault tolerance: a
            :class:`~repro.cluster.supervision.RecoveryPolicy` puts a
            :class:`~repro.cluster.supervision.ShardSupervisor` between
            the cluster and the executor, so dead or hung shard workers
            are detected, resurrected deterministically (restart budget
            and backoff per the policy) and — once the budget is
            exhausted — quarantined, degrading only their own devices
            (``policy.degraded``: typed error or parent-side fallback)
            while every other shard keeps serving bitwise-unchanged.
            ``policy.call_timeout`` is applied to a process executor's
            receives.  None (default): failures surface as
            :class:`~repro.errors.ClusterError` exactly as before.

    Example:
        >>> cluster = ShardedLocater(building, metadata, table,
        ...                          shard_count=4)
        >>> answers = cluster.locate_batch(queries)
        >>> cluster.ingest(new_events)       # merge once, fan out
        >>> cluster.close()
    """

    def __init__(self, building: Building, metadata: SpaceMetadata,
                 table: EventTable, *, shard_count: int,
                 executor: "ShardExecutor | None" = None,
                 config: "LocaterConfig | None" = None,
                 storage: "StorageEngine | None" = None,
                 recovery: "RecoveryPolicy | None" = None) -> None:
        if shard_count < 1:
            raise ConfigurationError(
                f"shard_count must be >= 1, got {shard_count}")
        self._building = building
        self._metadata = metadata
        self._table = table
        self._config = config
        self._caching = config.use_caching if config is not None else True
        # Caching on: each component's cache must live whole on one
        # shard, so bind every device now and re-bind at each ingest.
        # Caching off: nothing to co-locate, so the router is never fed
        # and every device keeps its stable-hash route.
        self._router = ComponentAffinityRouter(building)
        if self._caching:
            self._router.observe_table(table, table.macs())
        self._executor = executor if executor is not None \
            else SerialShardExecutor()
        self._shard_count = shard_count
        if not self._executor.in_process and storage is not None:
            raise ConfigurationError(
                "process shards cannot share the caller's storage "
                "backend; use an in-process executor or storage=None")
        self._storage = storage
        self._views = [
            storage.namespace(f"shard{shard_id}") if storage is not None
            else None
            for shard_id in range(shard_count)]
        self._tap = _EventTap(storage)
        self._engine = IngestionEngine(table, storage=self._tap)
        in_process = self._executor.in_process
        views = self._views

        def local_shard(shard_id: int) -> Shard:
            # Every in-process shard's Locater reads the cluster's table.
            # (Closes over plain locals, not ``self``: the executor keeps
            # its factory and must not hold the cluster in a cycle.)
            return Shard(shard_id, Locater(building, metadata, table,
                                           config=config,
                                           storage=views[shard_id]))

        if recovery is not None and recovery.call_timeout is not None:
            # Reach through a wrapper (e.g. FaultInjectingExecutor) so
            # the timeout lands on the executor that owns the pipes.
            target = getattr(self._executor, "inner", self._executor)
            if isinstance(target, ProcessShardExecutor):
                target.call_timeout = recovery.call_timeout
        # Process shards attach the table's shared-memory segments by
        # name.  A heap table moves there for the cluster's lifetime.
        self._owns_store = not in_process and not table.store.is_shared
        if self._owns_store:
            table.migrate_store(SharedMemoryColumnStore())
        try:
            self._executor.start(
                local_shard if in_process else self._shard_factory(),
                shard_count)
        except BaseException:
            self._restore_store()
            raise
        self._recovery = recovery
        self._fallback: "Locater | None" = None
        if recovery is not None:
            self._supervisor: "ShardSupervisor | None" = ShardSupervisor(
                self._executor, policy=recovery,
                # Attached workers must map the table's *current*
                # segments at resurrection time; the start-time
                # descriptor goes stale at the first ingest.  The
                # in-process factory reads the live table anyway.
                factory_provider=None if in_process
                else self._shard_factory,
                checkpoints=self._caching)
        else:
            self._supervisor = None
        # States handed out by make_batch_state, pruned on every ingest
        # so held states never serve memos staled by new events.  Weak:
        # the cluster must not keep abandoned states (and their neighbor
        # snapshots) alive.
        self._live_states: "weakref.WeakSet[ClusterBatchState]" = \
            weakref.WeakSet()
        self._closed = False
        self._poisoned = False

    def _shard_factory(self) -> ShardFactory:
        """A fresh attached-shard factory over the current table state."""
        return _AttachedShardFactory(
            self._building, self._metadata, self._config,
            self._table.describe())

    def _restore_store(self) -> None:
        """Move a table this cluster lifted into shared memory back to
        the heap; closing the shared store unlinks every segment."""
        if self._owns_store:
            self._table.migrate_store(HeapColumnStore())

    # ------------------------------------------------------------------
    @property
    def building(self) -> Building:
        """The space model every shard cleans against."""
        return self._building

    @property
    def table(self) -> EventTable:
        """The authoritative connectivity events table."""
        return self._table

    @property
    def config(self) -> "LocaterConfig | None":
        """The configuration shared by every shard."""
        return self._config

    @property
    def router(self) -> ComponentAffinityRouter:
        """The device → shard assignment (never fed with caching off)."""
        return self._router

    @property
    def executor(self) -> ShardExecutor:
        """The shard placement / dispatch layer."""
        return self._executor

    @property
    def shard_count(self) -> int:
        """Number of shards."""
        return self._shard_count

    def shard_of(self, mac: str) -> int:
        """The shard that owns ``mac``."""
        return self._router.shard_of(mac, self._shard_count)

    @property
    def supervisor(self) -> "ShardSupervisor | None":
        """The supervision layer (None unless ``recovery`` was given)."""
        return self._supervisor

    @property
    def quarantined(self) -> frozenset[int]:
        """Shards offline for good (restart budget exhausted)."""
        return self._supervisor.quarantined \
            if self._supervisor is not None else frozenset()

    @property
    def recovery_events(self) -> list[RecoveryEvent]:
        """Every recovery episode so far (empty without supervision)."""
        return list(self._supervisor.events) \
            if self._supervisor is not None else []

    # -- supervised dispatch (falls through when recovery is off) ------
    def _call_all(self, method: str,
                  args_per_shard: "Sequence[tuple] | None" = None
                  ) -> list:
        if self._supervisor is not None:
            return self._supervisor.call_all(method, args_per_shard)
        return self._executor.call_all(method, args_per_shard)

    def _call_one(self, shard_id: int, method: str, *args) -> object:
        if self._supervisor is not None:
            return self._supervisor.call_one(shard_id, method, *args)
        return self._executor.call_one(shard_id, method, *args)

    def _checkpoint(self, shard_ids: "Iterable[int] | None" = None) -> None:
        if self._supervisor is not None:
            self._supervisor.checkpoint(shard_ids)

    def _fallback_locater(self) -> Locater:
        """Parent-side degraded-mode server for quarantined devices.

        Cache-less (so surviving shards' aggregated cache counters stay
        exactly a lone system's minus the quarantined slice) and
        storage-less (degraded answers are best-effort, never
        persisted); reads the authoritative table, so answers are still
        full-quality — just without the dead shard's warm state.
        """
        if self._fallback is None:
            base = self._config if self._config is not None \
                else LocaterConfig()
            self._fallback = Locater(
                self._building, self._metadata, self._table,
                config=base.with_(use_caching=False))
        return self._fallback

    def _degraded_answer(self, shard_id: int, queries: list[LocationQuery],
                         bucket_seconds: float,
                         share_computation: bool) -> list[LocationAnswer]:
        """Serve a quarantined shard's slice per the degradation policy."""
        if self._recovery is None or self._recovery.degraded == "error":
            macs = sorted({query.mac for query in queries})
            raise ShardQuarantinedError(
                shard_id,
                f"shard {shard_id} is quarantined (restart budget "
                f"exhausted); its devices are offline: {', '.join(macs)}")
        return self._fallback_locater().locate_batch(
            queries, bucket_seconds=bucket_seconds,
            share_computation=share_computation)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def locate(self, mac: str, timestamp: float) -> LocationAnswer:
        """Answer one query on its owning shard."""
        return self.locate_query(
            LocationQuery(mac=mac, timestamp=timestamp))

    def locate_query(self, query: LocationQuery) -> LocationAnswer:
        """Answer an explicit :class:`LocationQuery` on its owning shard.

        Under supervision a dead owning shard is resurrected first; a
        quarantined one degrades per the recovery policy (typed error
        or parent-side fallback).
        """
        self._check_open()
        shard_id = self.shard_of(query.mac)
        if self._supervisor is None:
            return self._executor.call_one(shard_id, "locate_query", query)
        try:
            if shard_id in self._supervisor.quarantined:
                raise ShardQuarantinedError(
                    shard_id, f"shard {shard_id} is quarantined")
            answer = self._supervisor.call_one(
                shard_id, "locate_query", query)
        except ShardQuarantinedError:
            return self._degraded_answer(
                shard_id, [query], DEFAULT_BUCKET_SECONDS, True)[0]
        self._checkpoint([shard_id])
        return answer

    def locate_batch(self, queries: Iterable[LocationQuery],
                     bucket_seconds: float = DEFAULT_BUCKET_SECONDS,
                     timings: "list[tuple[int, float]] | None" = None,
                     share_computation: bool = True,
                     state: "ClusterBatchState | None" = None
                     ) -> list[LocationAnswer]:
        """Answer a batch: partition by owner, execute shards, merge.

        Same contract as :meth:`Locater.locate_batch` — answers return
        in input order; ``timings`` entries carry input indices (their
        *order* interleaves per shard rather than following the global
        plan).  ``state`` must come from :meth:`make_batch_state`.
        """
        self._check_open()
        queries = list(queries)
        indexed = list(enumerate(queries))
        parts = self._router.partition(
            indexed, [q.mac for q in queries], self._shard_count)
        if state is not None:
            shard_states: "Sequence[BatchState | None]" = state.shard_states
        else:
            shard_states = [None] * self._shard_count
        args = [
            ([query for _, query in part], bucket_seconds,
             timings is not None, share_computation, shard_state)
            for part, shard_state in zip(parts, shard_states)]
        results = self._call_all("locate_batch", args)
        answers: "list[LocationAnswer | None]" = [None] * len(queries)
        served: list[int] = []
        for shard_id, (part, result) in enumerate(zip(parts, results)):
            if result is None:
                # Only the supervised path yields None slots: the shard
                # is quarantined (before the call, or its recovery
                # failed mid-call).  Its slice degrades per policy;
                # every other shard's slice is untouched.
                if not part:
                    continue
                part_answers = self._degraded_answer(
                    shard_id, [query for _, query in part],
                    bucket_seconds, share_computation)
                part_timings = None
            else:
                part_answers, part_timings = result
                if part:
                    served.append(shard_id)
            for (index, _), answer in zip(part, part_answers):
                answers[index] = answer
            if timings is not None and part_timings:
                timings.extend((part[local][0], seconds)
                               for local, seconds in part_timings)
        self._checkpoint(served)
        return answers  # type: ignore[return-value]  # every slot filled

    def locate_slice(self, shard_id: int,
                     queries: "Sequence[LocationQuery]",
                     bucket_seconds: float = DEFAULT_BUCKET_SECONDS,
                     share_computation: bool = True,
                     state: "ClusterBatchState | None" = None
                     ) -> list[LocationAnswer]:
        """Answer a pre-routed slice on one shard (the serving layer's
        per-lane entry).

        :meth:`locate_batch` fans an unrouted batch to every shard and
        waits for all of them; a micro-batching gateway routes queries
        to per-shard lanes itself (via :meth:`shard_of`) and needs the
        complement — dispatch *one* shard's window without touching the
        others, so one slow shard never stalls another lane's batches.
        The caller owns the routing invariant: every query must route
        to ``shard_id`` under the current routes (re-check after any
        ingest, which is when a caching cluster re-keys devices).
        Answers come back in slice order, bitwise what
        :meth:`locate_batch` would return for the same slice.

        Concurrent ``locate_slice`` calls targeting *different* shards
        are safe on every executor (each shard sees a sequential call
        stream, the property the executors already guarantee inside
        ``call_all``); calls targeting one shard must be serialized by
        the caller, and supervised dispatch must be serialized globally
        (the supervisor's recovery bookkeeping is single-threaded).

        Under supervision a dead shard is resurrected first; a
        quarantined one degrades per the recovery policy, exactly like
        :meth:`locate_batch`.
        """
        self._check_open()
        queries = list(queries)
        if not queries:
            return []
        shard_state = state.shard_states[shard_id] \
            if state is not None else None
        try:
            if self._supervisor is not None and \
                    shard_id in self._supervisor.quarantined:
                raise ShardQuarantinedError(
                    shard_id, f"shard {shard_id} is quarantined")
            answers, _ = self._call_one(
                shard_id, "locate_batch", queries, bucket_seconds,
                False, share_computation, shard_state)
        except ShardQuarantinedError:
            return self._degraded_answer(
                shard_id, queries, bucket_seconds, share_computation)
        self._checkpoint([shard_id])
        return answers

    def make_batch_state(self, max_snapshots: "int | None" = None
                         ) -> ClusterBatchState:
        """A persistent cluster state (one :class:`BatchState` per shard).

        The cluster keeps a weak reference and prunes the state on
        every :meth:`ingest` / :meth:`on_ingest`, so holding it across
        ingests stays safe (memos never outlive the table state they
        were derived from).  Only available with in-process executors;
        process shards keep their persistent state worker-side (their
        streaming sessions prune it on every :meth:`ingest`).
        """
        self._check_open()
        self._require_in_process("make_batch_state")
        state = ClusterBatchState(tuple(
            shard.locater.make_batch_state(max_snapshots=max_snapshots)
            for shard in self._executor.shards))
        self._live_states.add(state)
        return state

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(self, events: Iterable[ConnectivityEvent]
               ) -> ClusterIngestReport:
        """Merge new events once, then bring every shard up to date.

        The cluster's engine stamps ids and merges into the
        authoritative table (identically to a lone system's engine).
        With caching on, the router then re-binds the changed devices
        from the merged table (merging components, and migrating the
        devices that re-keyed).  The stamped batch is partitioned to
        persist each shard's slice of the dirty stream, and finally
        reaches the shards: in-process shards invalidate against the
        shared table (live batch states handed out by
        :meth:`make_batch_state` are pruned along the way); process
        shards receive a :class:`~repro.events.table.TableSync` — the
        new segment names and counters, no event data — advance their
        attached views and invalidate off the owner's report.
        """
        self._check_open()
        generation_before = self._table.generation
        report = self._engine.ingest(events)
        stamped = self._tap.take()
        moved = self._rebind(report.macs)
        partitions = partition_events(stamped, self._router,
                                      self._shard_count)
        for view, partition in zip(self._views, partitions):
            if view is not None and partition:
                view.store_events(partition)
        with self._poison_on_failure():
            self._migrate_moved(moved)
            if self._executor.in_process:
                summaries = self._call_all(
                    "on_ingest", [(report,)] * self._shard_count)
                self._prune_states(report,
                                   self._merge_summaries(summaries))
            else:
                # One physical merge just happened (owner-side); ship
                # the new segment names, not the events.  Workers are
                # idle between calls (synchronous dispatch), so no read
                # races the handle swap.
                payload = self._table.sync_payload(generation_before)
                self._call_all(
                    "apply_table_sync",
                    [(payload, report)] * self._shard_count)
        self._checkpoint()
        return ClusterIngestReport(
            total=report,
            shard_reports=tuple(
                self._slice_report(report, partitions[shard_id], shard_id)
                for shard_id in range(self._shard_count)))

    def on_ingest(self, report: IngestReport) -> InvalidationSummary:
        """React to a merge some external engine performed on ``table``.

        This is the :class:`~repro.system.streaming.StreamingSession`
        wiring: the session's engine merged into the shared table, and
        every shard now invalidates its own models.  The per-shard
        summaries agree on everything except the per-namespace answer
        counts (same report, same table, same escalation rule), so the
        merge is a sum/union of identical decisions.  Live batch states
        are pruned here too — a session prunes its own state again
        afterwards, which is redundant but harmless (every pruning step
        is idempotent).
        """
        self._check_open()
        self._require_in_process("on_ingest")
        # The external engine merged into the shared table already, so
        # the changed devices re-bind from their logs — queries must
        # never route a device differently depending on which ingest
        # entry point saw it first.
        moved = self._rebind(report.macs)
        with self._poison_on_failure():
            self._migrate_moved(moved)
            summaries: "list[InvalidationSummary | None]" = \
                self._call_all(
                    "on_ingest", [(report,)] * self._shard_count)
            merged = self._merge_summaries(summaries)
            self._prune_states(report, merged)
        self._checkpoint()
        return merged

    def _rebind(self, macs: frozenset[str]) -> frozenset[str]:
        """Re-bind changed devices (caching on); returns the re-keyed."""
        if not self._caching:
            return frozenset()
        return self._router.observe_table(self._table, macs)

    def _migrate_moved(self, moved: frozenset[str]) -> None:
        """Move what a route change would otherwise strand.

        The router just re-keyed ``moved`` devices in a component merge
        (a device's first binding into an existing component is one).
        Two kinds of owned state must follow them — runs inside
        ``_poison_on_failure`` because a partial migration leaves shards
        diverged:

        * **Stored answers**: cleared from every namespace but the new
          owner's, so a re-query can never serve a stale namespaced
          answer (models and memos need no such care — they are pure
          functions of the log every shard reads).
        * **Cache edges**: every recorded affinity edge incident to a
          moved device is extracted from whichever shard holds it and
          re-inserted on the shard owning the edge's lower endpoint,
          observation order preserved bitwise — after a component
          merge both endpoints route to the same shard, so that
          shard's later affinity reads are exactly a lone system's.
        """
        if not moved:
            return
        macs = sorted(moved)
        for shard_id, view in enumerate(self._views):
            if view is None:
                continue
            for mac in macs:
                if self.shard_of(mac) != shard_id:
                    view.clear_answers(mac)
        exports = self._call_all(
            "export_cache_edges", [(macs,)] * self._shard_count)
        payloads: "list[list[tuple[str, str, list[tuple[float, float]]]]]" \
            = [[] for _ in range(self._shard_count)]
        for edges in exports:
            # A None slot is a quarantined shard (supervised path): its
            # cache is unreachable and its devices are offline, so
            # nothing can be migrated from it.
            for mac_a, mac_b, vector in edges or ():
                payloads[self.shard_of(min(mac_a, mac_b))].append(
                    (mac_a, mac_b, vector))
        if any(payloads):
            self._call_all(
                "import_cache_edges",
                [(payload,) for payload in payloads])
        if any(edges for edges in exports if edges):
            # The extraction was destructive on the source shards; a
            # later crash must not resurrect one from a pre-extraction
            # checkpoint (the moved edges would exist twice).
            self._checkpoint()

    @staticmethod
    def _merge_summaries(summaries: "Sequence[InvalidationSummary | None]"
                         ) -> InvalidationSummary:
        # A None slot means the supervised path resurrected (or
        # quarantined) that shard instead of running its invalidation —
        # the rebuilt shard is fresh against the merged table, but any
        # *parent-side* state derived from the old shard must be
        # considered fully stale, so the merge escalates to a full
        # invalidation (bitwise-safe: serving from a reset state equals
        # serving from a fresh one).
        present = [s for s in summaries if s is not None]
        full = any(s.full for s in present) or len(present) < len(summaries)
        return InvalidationSummary(
            full=full,
            macs=frozenset().union(*(s.macs for s in present))
            if present else frozenset(),
            delta_changed=frozenset().union(
                *(s.delta_changed for s in present))
            if present else frozenset(),
            answers_dropped=sum(s.answers_dropped for s in present))

    def _prune_states(self, report: IngestReport,
                      summary: InvalidationSummary) -> None:
        """Bring every live :class:`ClusterBatchState` up to date.

        Shares :func:`~repro.system.streaming.prune_batch_state` with
        the streaming session — one surgical-invalidation policy, no
        drift — and handles the full-invalidation case by resetting
        each held state in place (a session would swap in a fresh one).
        """
        if not report.changed and not summary.full:
            return
        registry = self._table.registry
        for state in list(self._live_states):
            if summary.full:
                state.reset()
            else:
                prune_batch_state(state, report, summary, registry)

    def _slice_report(self, report: IngestReport,
                      partition: "list[ConnectivityEvent]",
                      shard_id: int) -> IngestReport:
        """The owned slice of a cluster report for one shard."""
        owned = {mac: interval for mac, interval in report.changed.items()
                 if self.shard_of(mac) == shard_id}
        return IngestReport(
            count=len(partition), generation=report.generation,
            changed=owned,
            delta_changes={mac: move for mac, move
                           in report.delta_changes.items() if mac in owned})

    # ------------------------------------------------------------------
    # Observability / lifecycle
    # ------------------------------------------------------------------
    def cache_stats(self) -> ClusterCacheStats:
        """Caching-engine counters, per shard and summed cluster-wide.

        The aggregated ``total`` is what equivalence checks compare: it
        is insensitive to shard order and bitwise equal to a lone
        system's ``cache.stats()`` over the same query stream.
        """
        self._check_open()
        per_shard = self._call_all("cache_stats")
        counters = [stats for stats in per_shard if stats is not None]
        total = None
        if counters:
            total = {key: sum(stats.get(key, 0) for stats in counters)
                     for key in counters[0]}
        return ClusterCacheStats(per_shard=tuple(per_shard), total=total)

    def shard_stats(self) -> "list[dict[str, int] | None]":
        """Per-shard serving counters (None slots: quarantined shards)."""
        self._check_open()
        return self._call_all("stats")

    def table_memory(self) -> dict:
        """Event-table memory accounting: parent plus every shard.

        Logical column bytes per process (exact, from store accounting)
        with the backend kind, plus each process's VmRSS as an
        auxiliary signal.  No shard holds a copy of the log: in-process
        shards read the parent's table object and process shards map
        its segments (kind ``shared-attached``), so the parent's column
        bytes are the whole deployment's.  None slots are quarantined
        shards.
        """
        self._check_open()
        return {
            "parent": self._table.memory_stats(),
            "shards": self._call_all("table_memory"),
        }

    def close(self) -> None:
        """Tear down shards, workers and storage views, and move a table
        this cluster lifted into shared memory back to the heap.
        Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._executor.close()
        for view in self._views:
            if view is not None:
                view.close()
        self._restore_store()

    def __enter__(self) -> "ShardedLocater":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise ClusterError("cluster already closed")
        if self._poisoned:
            raise ClusterError(
                "cluster poisoned: an ingest fan-out failed part-way, so "
                "some shards may hold stale models or table views; rebuild "
                "the cluster from the authoritative table (retrying the "
                "ingest would double-merge the batch)")

    @contextlib.contextmanager
    def _poison_on_failure(self):
        """Fail-stop guard around a shard fan-out.

        If invalidation (or a table sync) reaches some shards but not
        others, the survivors silently diverge from the authoritative
        table — worse than an outage under this layer's bitwise
        contract.  Any fan-out failure therefore poisons the cluster:
        every later serving call raises until the owner rebuilds.
        """
        try:
            yield
        except BaseException:
            self._poisoned = True
            raise

    def _require_in_process(self, operation: str) -> None:
        if not self._executor.in_process:
            raise ConfigurationError(
                f"{operation} needs in-process shards (they share the "
                "cluster's table and state); with process shards, drive "
                "ingest through ShardedLocater.ingest instead")


class _EventTap:
    """The engine-facing storage stub of a cluster.

    Captures the stamped events of the current ingest call (the cluster
    partitions and persists them once the ingest's routes are final)
    and answers ``max_event_id`` from the real backend so id seeding
    matches a lone system's engine exactly.
    """

    def __init__(self, backend: "StorageEngine | None") -> None:
        self._backend = backend
        self._buffer: list[ConnectivityEvent] = []

    def store_events(self, events: Iterable[ConnectivityEvent]) -> int:
        batch = list(events)
        self._buffer.extend(batch)
        return len(batch)

    def max_event_id(self) -> int:
        return self._backend.max_event_id() \
            if self._backend is not None else -1

    def take(self) -> list[ConnectivityEvent]:
        """The stamped events buffered since the last take."""
        out, self._buffer = self._buffer, []
        return out
