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
edges (see :meth:`ShardedLocater._migrate_moved`).  The equivalence suite in
``tests/integration/test_cluster_equivalence.py`` enforces all of this
on batch and streaming workloads.

Freshness is pulled, as in a lone ``Locater``: ``ingest``, every
serving call and every route read first compare the table's generation
with the last one the cluster saw, and catch up on what changed — every
shard's stored answers are purged, the routes re-bind, re-keyed devices
migrate, process shards get the owner's new segments — before anything
else.  Each shard's ``Locater``
then pulls its own invalidation at its next serve.  So the cluster
stays fresh whichever engine merged into its table.

The public surface mirrors ``Locater`` (``locate``, ``locate_batch``,
``locate_query``, ``table``), so
:class:`~repro.system.streaming.StreamingSession`, the CLI, analytics
and the eval runner work unchanged against a cluster, with any
executor; ``ingest`` is the cluster-native entry point that also
persists each shard's slice of the dirty stream.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass
from collections.abc import Iterable, Sequence

from repro.cluster.executor import (
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
from repro.system.locater import Locater, LocationAnswer
from repro.system.query import LocationQuery
from repro.system.storage import StorageEngine


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


class _AttachedShardFactory:
    """Picklable shard factory for process workers: *attach* the table.

    It carries a :class:`~repro.events.table.TableDescriptor` — segment
    names, registry order, generations — and each worker maps the
    owner's shared-memory segments read-only, so N workers hold one
    physical copy of the log.  Picklable and self-contained, so it
    crosses a ``spawn`` boundary as well as a ``fork``.  The cluster
    advances the view with :meth:`Shard.apply_table_sync`.
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
            A hung process shard is detected by the executor's own
            ``call_timeout``.  None (default): failures surface as
            :class:`~repro.errors.ClusterError` exactly as before.

    Example:
        >>> cluster = ShardedLocater(building, metadata, table,
        ...                          shard_count=4)
        >>> answers = cluster.locate_batch(queries)
        >>> cluster.ingest(new_events)       # merge once, catch up
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
        # Everything below is bound at this generation; _catch_up moves
        # the cluster to any later one, one caller at a time.
        self._seen_generation = table.generation
        self._catch_up_lock = threading.Lock()
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

        # Process shards attach the table's shared-memory segments by
        # name.  A heap table moves there for the cluster's lifetime,
        # and back to the heap on close.
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
        self._catch_up()
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
        self._catch_up()
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
        full-quality — just without the dead shard's warm state — and,
        like every ``Locater``, catches up with each ingest at its next
        serve.
        """
        if self._fallback is None:
            base = self._config if self._config is not None \
                else LocaterConfig()
            self._fallback = Locater(
                self._building, self._metadata, self._table,
                config=base.with_(use_caching=False))
        return self._fallback

    def _degraded_answer(self, shard_id: int, queries: list[LocationQuery]
                         ) -> list[LocationAnswer]:
        """Serve a quarantined shard's slice per the degradation policy."""
        if self._recovery is None or self._recovery.degraded == "error":
            macs = sorted({query.mac for query in queries})
            raise ShardQuarantinedError(
                shard_id,
                f"shard {shard_id} is quarantined (restart budget "
                f"exhausted); its devices are offline: {', '.join(macs)}")
        return self._fallback_locater().locate_batch(queries)

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
            return self._degraded_answer(shard_id, [query])[0]
        self._checkpoint([shard_id])
        return answer

    def locate_batch(self, queries: Iterable[LocationQuery]
                     ) -> list[LocationAnswer]:
        """Answer a batch: partition by owner, execute shards, merge.

        Same contract as :meth:`Locater.locate_batch` — answers return
        in input order, and an unknown MAC raises before any shard is
        called.  Every shard is called, an empty slice included, so
        every shard's ``Locater`` catches up with the table.
        """
        self._check_open()
        self._catch_up()
        queries = list(queries)
        self._check_known(queries)
        indexed = list(enumerate(queries))
        parts = self._router.partition(
            indexed, [q.mac for q in queries], self._shard_count)
        results = self._call_all(
            "locate_batch", [([query for _, query in part],)
                             for part in parts])
        answers: "list[LocationAnswer | None]" = [None] * len(queries)
        served: list[int] = []
        for shard_id, (part, part_answers) in enumerate(zip(parts, results)):
            if part_answers is None:
                # Only the supervised path yields None slots: the shard
                # is quarantined (before the call, or its recovery
                # failed mid-call).  Its slice degrades per policy;
                # every other shard's slice is untouched.
                if not part:
                    continue
                part_answers = self._degraded_answer(
                    shard_id, [query for _, query in part])
            elif part:
                served.append(shard_id)
            for (index, _), answer in zip(part, part_answers):
                answers[index] = answer
        self._checkpoint(served)
        return answers  # type: ignore[return-value]  # every slot filled

    def locate_slice(self, shard_id: int,
                     queries: "Sequence[LocationQuery]"
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
        self._catch_up()
        queries = list(queries)
        if not queries:
            return []
        self._check_known(queries)
        try:
            if self._supervisor is not None and \
                    shard_id in self._supervisor.quarantined:
                raise ShardQuarantinedError(
                    shard_id, f"shard {shard_id} is quarantined")
            answers = self._call_one(shard_id, "locate_batch", queries)
        except ShardQuarantinedError:
            return self._degraded_answer(shard_id, queries)
        self._checkpoint([shard_id])
        return answers

    def _check_known(self, queries: "Sequence[LocationQuery]") -> None:
        """Raise :class:`UnknownDeviceError` for a MAC the table has never
        seen, before any shard answers (and persists) a query."""
        registry = self._table.registry
        for query in queries:
            registry.get(query.mac)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def ingest(self, events: Iterable[ConnectivityEvent]) -> IngestReport:
        """Merge new events once, then bring the cluster up to date.

        The cluster's engine stamps ids and merges into the
        authoritative table (identically to a lone system's engine).
        The catch-up then runs before any route is read: every shard's
        stored answers are purged, with caching on the router re-binds
        the changed devices from the merged table (merging components,
        and migrating the devices that re-keyed), and process shards
        receive a :class:`~repro.events.table.TableSync` — the new
        segment names and counters, no event data — that advances their
        attached views.  Finally, with a storage backend, the stamped
        batch is partitioned to persist each shard's slice of the dirty
        stream.  No shard invalidates a model or memo here: each
        ``Locater`` pulls that invalidation at its next serve.  The
        report is the engine's, for the whole cluster: :meth:`shard_of`
        says which shard owns each changed device.
        """
        self._check_open()
        report = self._engine.ingest(events)
        stamped = self._tap.take()
        self._catch_up()
        if self._storage is not None:
            partitions = partition_events(stamped, self._router,
                                          self._shard_count)
            for view, partition in zip(self._views, partitions):
                if partition:
                    view.store_events(partition)
        self._checkpoint()
        return report

    def _catch_up(self) -> None:
        """Pull what the cluster owns up to the table's generation.

        Reading the generation freezes pending appends first, as every
        table read does; an unmoved generation costs one integer
        compare.  Otherwise the table merged rows since the cluster last
        looked — through :meth:`ingest`, a streaming session's engine or
        any other writer — and the cluster purges every shard's stored
        answers (a shard resurrected before its next serve starts with
        nothing to catch up on, so it must not find them), re-binds the
        changed devices (caching on), migrates the cache edges of the
        re-keyed ones, and ships process shards the owner's
        :class:`~repro.events.table.TableSync` (synchronous dispatch:
        workers are idle between calls, so no read races the handle
        swap).

        One caller catches up at a time: concurrent serving calls (a
        gateway's lanes) that all see the moved generation wait on a
        lock, and all but the first find the work done.  The seen
        generation advances before the work, and a failure there
        poisons the cluster rather than retrying: shards may have
        diverged, and a retry could not tell which half ran.
        """
        table = self._table
        if table.generation == self._seen_generation:
            return
        with self._catch_up_lock:
            seen = self._seen_generation
            if table.generation == seen:
                return
            self._check_open()
            self._seen_generation = table.generation
            with self._poison_on_failure():
                changed = table.changed_since(seen)
                if changed:
                    for view in self._views:
                        if view is not None:
                            view.clear_answers()
                if self._caching:
                    self._migrate_moved(
                        self._router.observe_table(table, changed))
                if not self._executor.in_process:
                    payload = table.sync_payload(seen)
                    self._call_all("apply_table_sync",
                                   [(payload,)] * self._shard_count)

    def _migrate_moved(self, moved: frozenset[str]) -> None:
        """Move the cache edges a route change would otherwise strand.

        The router just re-keyed ``moved`` devices in a component merge
        (a device's first binding into an existing component is one).
        Every recorded affinity edge incident to a moved device is
        extracted from whichever shard holds it and re-inserted on the
        shard owning the edge's lower endpoint, observation order
        preserved bitwise — after a component merge both endpoints
        route to the same shard, so that shard's later affinity reads
        are exactly a lone system's.  Stored answers need no such care
        (the catch-up purged every namespace), nor do models and memos
        (pure functions of the log every shard reads).  Runs inside
        ``_poison_on_failure``: a partial migration leaves shards
        diverged.
        """
        if not moved:
            return
        macs = sorted(moved)
        exports = self._call_all(
            "export_cache_edges", [(macs,)] * self._shard_count)
        payloads: "list[list[tuple[str, str, list[tuple[float, float]]]]]" \
            = [[] for _ in range(self._shard_count)]
        for edges in exports:
            # A None slot is a quarantined shard (supervised path): its
            # cache is unreachable and its devices are offline, so
            # nothing can be migrated from it.
            for mac_a, mac_b, vector in edges or ():
                payloads[self._router.shard_of(
                    min(mac_a, mac_b), self._shard_count)].append(
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
        self._catch_up()
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
        self._catch_up()
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
        self._catch_up()
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
                "cluster poisoned: catching up with an ingest failed "
                "part-way, so some shards may hold stale cache edges or "
                "table views; rebuild the cluster from the authoritative "
                "table (retrying the ingest would double-merge the batch)")

    @contextlib.contextmanager
    def _poison_on_failure(self):
        """Fail-stop guard around a shard fan-out.

        If a migration (or a table sync) reaches some shards but not
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

    def clear_answers(self) -> int:
        # The cluster's catch-up purges every shard's namespace, before
        # any shard serves, whichever engine merged.
        return 0

    def take(self) -> list[ConnectivityEvent]:
        """The stamped events buffered since the last take."""
        out, self._buffer = self._buffer, []
        return out
