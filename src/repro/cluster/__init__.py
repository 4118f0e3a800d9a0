"""The sharded cluster layer: LOCATER scaled past one serving process.

Single-node LOCATER is vectorized end to end; the remaining axis of
scale is *across* devices and buildings.  This package turns one
:class:`~repro.system.locater.Locater` into N of them behind the same
query surface:

Architecture
------------

Three pieces; only the executor is a choice:

* **Router** (:mod:`repro.cluster.router`) — which shard *owns* which
  device.  Ownership covers a device's queries, trained coarse models,
  cleaned-answer storage namespace and cache warm state.  The cluster
  builds one :class:`ComponentAffinityRouter` itself, and the
  configuration picks the routes.  With caching on (the default) every
  device routes by its co-presence component, which is what makes
  per-shard caching exact (below); routes change only at ingest
  boundaries, where the cluster migrates what a move would strand
  (stored answers, recorded cache edges).  With caching off the router
  is never fed, and every device routes by ``stable_hash(mac)``,
  spreading even one giant component over every shard.
* **Executor** (:mod:`repro.cluster.executor`) — where shards live and
  how calls reach them.  :class:`SerialShardExecutor` keeps shards
  in-process (sharing the cluster's event table object);
  :class:`ProcessShardExecutor` starts one actor worker per shard
  (``fork`` or ``spawn``) and speaks pickled (method, args) over a
  pipe.  Every worker attaches, read-only and by segment name, to one
  shared-memory copy of the table: the cluster moves a heap table into
  a :class:`~repro.events.SharedMemoryColumnStore` at construction and
  back to the heap on ``close()``, so it unlinks every segment it
  created.  Both executors return results in shard order, so executor
  choice never changes an answer.
* **Shard** (:mod:`repro.cluster.shard`) — one full ``Locater``, over
  the cluster's table object or, in a process worker, over an attached
  view of it.  Shards are created by the executor from a factory at
  :meth:`ShardedLocater <repro.cluster.sharded.ShardedLocater>`
  construction and torn down by ``close()`` (context manager
  supported); workers unmap their views on close, so no mapping
  outlives the cluster.

Data placement is the key decision: every shard reads the **whole**
event log, serving state is **partitioned**.  Cleaning couples
devices through co-location — neighbor discovery, device-affinity
mining and the population aggregate read the whole log — so partial
logs would change answers; the whole log keeps the load-bearing
invariant instead, at the cost of one copy however many shards read
it:

    With any shard count and any executor, cluster answers are bitwise
    identical to a lone ``Locater`` over the same table, with caching
    on or off.

With caching off the whole log suffices: answers are pure functions
of the table.  The §5 caching engine is deliberate cross-query warm
state, not a pure function of the table — and the cluster keeps the
invariant anyway, through the **component-routing contract**: the
global affinity graph only ever couples devices inside a connected
component of the potential co-presence graph (two devices can share an
affinity edge only if their observed APs' room coverage intersects, the
precondition for ever being neighbors).  With caching on, the cluster's
:class:`~repro.cluster.router.ComponentAffinityRouter` co-locates
every device of a component on one shard, so each per-shard cache
performs exactly the edge reads and writes — in exactly the order —
of a lone deployment: **intra-component caching is exact**, bitwise,
including the aggregated hit/miss counters
(:meth:`ShardedLocater.cache_stats
<repro.cluster.sharded.ShardedLocater.cache_stats>` sums them
None-safely).  When growing logs merge two components at an ingest
boundary, the router re-keys the affected devices and the cluster runs
its edge-exchange protocol: recorded edge vectors incident to moved
devices are extracted from their old shards and re-inserted on the new
owner, observation order preserved.  Residual *cut* edges (only reachable through
pathological coarse fallbacks that place a device outside its own
observed coverage) stay best-effort: a shard consulting an edge it
never recorded treats it as unseen.

Freshness is pulled, never pushed.  One merge into the authoritative
table stamps ids and re-estimates δ exactly like a lone engine — through
``cluster.ingest`` or any other engine over the same table.  Ingest,
every serving call and every route read first catch the cluster up
with the table's generation, one caller at a time: every shard's stored
answers are purged, the router re-binds the changed devices when
caching is on (re-keyed ones migrate), and process shards apply a
:class:`~repro.events.table.TableSync` — the merge's new segment names,
no event data — to their attached views.  ``cluster.ingest`` also
persists each shard's slice of the dirty stream under its storage
namespace.  Shards invalidate surgically on their own: each shard's
``Locater`` sees the generation moved at its next serve and runs
:meth:`Locater.on_ingest` itself, exactly as a lone system would.

Typical use::

    from repro import ShardedLocater

    cluster = ShardedLocater(building, metadata, table, shard_count=4)
    answers = cluster.locate_batch(queries)     # partition → merge
    cluster.ingest(new_events)                  # merge once, catch up
    cluster.close()

``locate_batch``/``ingest`` are the synchronous surface.  To serve the
cluster to *concurrent* callers — coalescing individual ``locate``
calls into per-shard micro-batches behind a bounded admission queue —
front it with :class:`~repro.serve.AsyncGateway` from
:mod:`repro.serve`; the gateway reuses :meth:`ShardedLocater.locate_slice
<repro.cluster.sharded.ShardedLocater.locate_slice>` and
:meth:`shard_of <repro.cluster.sharded.ShardedLocater.shard_of>` so
its windows land on the owning shard with warm state, and its journal
replays bitwise against this package's equivalence oracles (see the
"Serving architecture" section of :mod:`repro`).

Operating a cluster under failure
---------------------------------

Pass ``recovery=RecoveryPolicy()`` to :class:`ShardedLocater
<repro.cluster.sharded.ShardedLocater>` and the cluster serves through
worker crashes instead of surfacing them:

* **Detection** (:mod:`repro.cluster.executor`) — every pipe failure is
  typed: a dead worker raises
  :class:`~repro.errors.ShardUnavailableError` (with exit-code
  forensics: ``killed by SIGKILL``, ``exit code 1``...), a silent one
  raises :class:`~repro.errors.ShardTimeoutError` once the executor's
  ``call_timeout`` elapses (a timed-out pipe is desynchronized, so the
  shard is marked dead until restarted), and fan-out failures aggregate
  into one :class:`~repro.errors.ClusterCallError` naming every failed
  shard while keeping the survivors' results.
* **Recovery** (:mod:`repro.cluster.supervision`) — the
  :class:`~repro.cluster.supervision.ShardSupervisor` retries transient
  failures under the policy's restart budget with deterministic
  backoff, resurrects the shard from its factory, and restores the §5
  cache from the last post-operation checkpoint.  Shard state outside
  the cache is a pure function of the log, so a resurrected
  shard answers **bitwise identically** to one that never died — cache
  contents and hit/miss counters included — as long as the crash fell
  between operations (the checkpoint granularity; a crash *inside* an
  operation loses at most that operation's cache delta, never answer
  correctness).  Every restart is recorded as a
  :class:`~repro.cluster.supervision.RecoveryEvent`.
* **Degradation** — a shard that exhausts its restart budget is
  quarantined.  ``RecoveryPolicy(degraded="error")`` (default) raises
  :class:`~repro.errors.ShardQuarantinedError` for queries routed to
  it; ``degraded="fallback"`` answers them from an in-process
  caching-off ``Locater`` over the authoritative table — correct
  answers, reduced throughput.  Surviving shards are untouched either
  way (their answers stay bitwise identical).
* **Chaos harness** (:mod:`repro.cluster.faults`) — a
  :class:`~repro.cluster.faults.FaultPlan` scripts kill/hang/corrupt
  faults at exact dispatch indices and the
  :class:`~repro.cluster.faults.FaultInjectingExecutor` wraps any real
  executor to fire them deterministically, which is what lets the test
  suite assert *bitwise* recovery rather than probabilistic survival.
* **Crash-safe shared memory** — segment names embed the owner pid, so
  :func:`repro.events.purge_orphan_segments` can reclaim segments
  orphaned by a hard-killed owner.

``examples/fault_tolerant_cluster.py`` scripts a mid-workload worker
kill and shows the cluster recovering to bitwise-identical answers.
``tests/integration/test_cluster_recovery.py`` asserts that two kills
of the busiest shard, serial or a real SIGKILL of a process worker, are
both absorbed with answers and summed cache counters bitwise, and that
both degraded modes leave the surviving shards unchanged.

Typical use::

    from repro import RecoveryPolicy, ShardedLocater

    cluster = ShardedLocater(building, metadata, table, shard_count=4,
                             executor=ProcessShardExecutor(),
                             recovery=RecoveryPolicy(max_restarts=2))
    answers = cluster.locate_batch(queries)   # survives worker crashes
    cluster.recovery_events                   # what happened, when

``examples/campus_cluster.py`` walks a 3-building campus on a 4-shard
cluster with streaming ingest; ``examples/cluster_caching.py`` shows
caching-on cluster serving through a component merge.
``tests/integration/test_cluster_equivalence.py`` holds every shard
count and executor to a lone ``Locater``, cache totals included, and
perfbench's ``gateway`` workload times two in-process shards.
"""

from repro.cluster.executor import (
    ProcessShardExecutor,
    SerialShardExecutor,
    ShardExecutor,
)
from repro.cluster.faults import (
    Fault,
    FaultInjectingExecutor,
    FaultPlan,
)
from repro.cluster.router import (
    ComponentAffinityRouter,
    partition_events,
    stable_hash,
)
from repro.cluster.shard import Shard
from repro.cluster.sharded import (
    ClusterCacheStats,
    ShardedLocater,
)
from repro.cluster.supervision import (
    RecoveryEvent,
    RecoveryPolicy,
    ShardSupervisor,
)

__all__ = [
    "ClusterCacheStats",
    "ComponentAffinityRouter",
    "Fault",
    "FaultInjectingExecutor",
    "FaultPlan",
    "ProcessShardExecutor",
    "RecoveryEvent",
    "RecoveryPolicy",
    "SerialShardExecutor",
    "Shard",
    "ShardExecutor",
    "ShardSupervisor",
    "ShardedLocater",
    "partition_events",
    "stable_hash",
]
