"""LOCATER reproduction: cleaning WiFi connectivity data for semantic localization.

A full reimplementation of the VLDB 2020 LOCATER system (Lin et al.):
coarse-grained localization as missing-value repair over connectivity
gaps, fine-grained room disambiguation via room/device/group affinities,
an affinity-graph caching engine, baselines, a SmartBench-style synthetic
data generator, and the paper's complete evaluation harness.

Typical use::

    from repro import ScenarioSpec, Simulator, Locater

    scenario = ScenarioSpec.dbh_like(seed=7)
    dataset = Simulator(scenario).run(days=14)
    locater = Locater(dataset.building, dataset.metadata, dataset.table)
    answer = locater.locate(dataset.macs()[0], timestamp=dataset.span.end - 3600)
    print(answer.location_label)

Batch API
---------

Experiments and analytics workloads (occupancy grids, trajectories,
contact tracing) ask many queries at once.  ``Locater.locate_batch``
answers a whole batch with shared computation: queries are grouped by
(device, time bucket) by :func:`repro.system.planner.plan_queries` and
executed front-to-back in timestamp order, so one online-device snapshot
serves every query of a timestamp, gap labels and affinities are
memoized across the batch, and the caching engine warms chronologically.
Answers are bitwise identical to the sequential path (see the equivalence
suite under ``tests/integration/test_batch_equivalence.py``) and come
back in input order::

    from repro import Locater, LocationQuery, plan_queries

    queries = [LocationQuery(mac, t) for mac in dataset.macs()
               for t in sampling_grid]
    answers = locater.locate_batch(queries)      # one shared-work pass
    plan = plan_queries(queries)                 # inspect the grouping
    print(plan.stats())

``examples/batch_queries.py`` walks through the API end to end and
times it against the per-query loop; the warm batch path is gated by
perfbench's ``gateway`` workload (``perfbench/README.md``).

Streaming ingestion
-------------------

LOCATER is a live system (paper Fig. 5): events keep arriving while
queries are served.  ``EventTable.freeze`` merges new rows into the
sorted per-device logs in O(new) (``searchsorted``/``insert``, no
re-sort) and publishes a generation-keyed change feed
(``changed_since``); an :class:`~repro.system.IngestionEngine` stamps
ids, merges and re-estimates δ only for the devices that changed.
Freshness is *pulled*: every ``Locater`` serve first compares the
table's generation with the last one it saw, and when it moved,
``Locater.on_ingest`` resets the warm batch state (neighbor snapshots
and affinity and gap-label memos) whole, and invalidates what costs to
rebuild *surgically* — only the changed devices' coarse models and
device affinities and (when they fed it) the population aggregate are
dropped, escalating to a full drop of every model only when the
training window itself moved.  No hook wires
an ingest path to the locater, so every path — an engine, a bare
``append``, a cluster's sync — stays fresh by construction.  Stored
answers are the one eager exception: an engine that persists rows
purges its store's cleaned answers in the same call, so a system
rebuilt over the store never reads one older than the rows.
:class:`~repro.system.StreamingSession` is the serve loop::

    from repro import Locater, StreamingSession

    session = StreamingSession(locater)      # wraps locater.table
    session.ingest(new_events)               # O(new) merge
    answers = session.query(burst)           # pull, then shared-work answers

Answers are bitwise identical to a system rebuilt from scratch over the
merged log, with exactly one full invalidation per streaming day
(``tests/integration/test_streaming_equivalence.py``); the incremental
path's cost is gated by perfbench's ``live_day`` workload.
``examples/streaming_ingest.py`` walks the loop end to end.

Array numeric core
------------------

The fine-grained hot path — group affinities, posterior updates,
possible-world bounds — runs on dense numpy arrays over interned room
ids.  Every :class:`~repro.space.Building` owns a
:class:`~repro.space.RoomIndex` (room id ↔ dense int code, mirroring
the event table's AP vocabulary); candidate sets become int32 code
arrays and affinities become float64 vectors aligned to them.
``GroupAffinityModel.group_affinities`` evaluates α(D, r, t) for all
candidate rooms in one pass, and ``RoomPosterior`` folds whole affinity
vectors with one ``np.log`` per neighbor.  String-keyed dicts survive
only at the public boundary (``FineResult.posterior``, the CLI, the
eval harness) as thin adapters — see :mod:`repro.fine` for the
contract and ``tests/oracles/fine.py`` for the retained scalar
oracle that ``tests/property/test_prop_fine_core.py`` checks the array
core against.

Sharded cluster layer
---------------------

Past one process, :class:`~repro.cluster.ShardedLocater` serves the
same query surface from N shards.  Every shard reads the whole event
log (cleaning couples devices through co-location — neighbor
discovery, affinity mining and the population aggregate read the whole
log) while serving state is *partitioned*: each device's queries,
trained models, storage namespace (:meth:`StorageEngine.namespace
<repro.system.storage.StorageEngine.namespace>`) and cache warm state
live on exactly one shard.  The cluster routes devices itself, with one
built-in :class:`~repro.cluster.ComponentAffinityRouter`.  With the §5
caching engine on (the default), devices are routed by connected
component of their potential co-presence (affinity edges never leave a
component), so each shard's cache warms exactly like the lone
system's, aggregated hit/miss counters included, and component merges
migrate recorded edges between shards at ingest boundaries.  With
caching off, answers are pure functions of the table and devices
spread by a stable hash of their MAC.  Either way answers are bitwise
identical to a lone ``Locater``
(``tests/integration/test_cluster_equivalence.py``).  A swappable
:class:`~repro.cluster.ShardExecutor` decides placement — serial shards
share the cluster's table object in-process; the process-pool executor
runs one actor worker per shard, *attached* to the one shared-memory
copy of the table — see the memory architecture below.  ``ingest``
merges once; the cluster and every shard pull the rest, like a lone
``Locater``: ingest, serving calls and route reads first catch the
cluster up with the table's generation (purging every shard's stored
answers, re-binding routes, migrating re-keyed devices, shipping
process workers a segment-name sync), and each shard's ``Locater``
invalidates at its next serve.  So
``StreamingSession``, the CLI, analytics and the eval runner work
unchanged against a cluster, with any executor::

    from repro import ShardedLocater

    cluster = ShardedLocater(building, metadata, table, shard_count=4)
    answers = cluster.locate_batch(queries)   # route → execute → merge
    cluster.ingest(new_events)                # merge once, catch up
    cluster.close()

See :mod:`repro.cluster` for the architecture (router / executor /
shard lifecycle) and the component-routing contract,
``examples/campus_cluster.py`` for a 3-building campus on a 4-shard
cluster with streaming ingest, and ``examples/cluster_caching.py`` for
caching-on cluster serving.  The cache-total identity, Fig. 12's cost
model included, is asserted in ``test_cluster_equivalence.py``'s
``TestCachingEquivalence``; perfbench's ``gateway`` workload times two
in-process shards, and no gated workload runs process shards yet.

Memory architecture
-------------------

The event table's hot numeric columns (per-device timestamps and AP
codes) live behind a pluggable :class:`~repro.events.ColumnStore`
rather than bare attributes.  The default
:class:`~repro.events.HeapColumnStore` keeps ordinary heap arrays;
:class:`~repro.events.SharedMemoryColumnStore` places them in named
``multiprocessing.shared_memory`` segments, so a process-shard
``ShardedLocater`` holds **one physical copy** of the table regardless
of shard count — workers attach read-only views by segment name
(``EventTable.describe()`` / ``EventTable.attach()``), under ``fork``
or ``spawn``, and ingest fans out generation-keyed ``sync_payload``
diffs instead of event batches.  Ownership rule: the process that
built the store unlinks its segments on ``close``; attached processes
never do.  A process cluster given a heap table moves it into a shared
store at construction and back to the heap on ``close``, so it unlinks
every segment it created and the caller's table outlives it; a table
that arrives on a shared store stays the caller's to close.

Everything else a ``Locater`` caches is a pure function of the event
table, recomputed on demand: trained coarse models (one set per
device), the warm batch state's memos and neighbor snapshots (bounded
by ``MAX_MEMO_ENTRIES`` and ``MAX_SNAPSHOTS``) and the table's flat view
(one per generation).  The one-copy claim is asserted exactly, per
shard and after every ingest, in
``tests/integration/test_shared_memory_cluster.py``.

Serving architecture
--------------------

The batch engine answers many queries at once; the cluster spreads them
over shards; :class:`~repro.serve.AsyncGateway` turns *concurrency
itself* into batches.  Callers await ``gateway.locate(mac, t)`` as
single-query coroutines; the gateway admits each query past a bounded
pending queue (past the bound it sheds immediately with a typed
:class:`~repro.errors.GatewayOverloadedError` — rejections, not
unbounded latency; ``await gateway.ready()`` is the backpressure
signal), routes it to its owning shard's submission lane
(:meth:`ShardedLocater.shard_of
<repro.cluster.ShardedLocater.shard_of>`; with caching on, a whole
co-presence component shares one lane and one cache), and each lane
coalesces whatever arrives within a batching window (``max_wait`` /
``max_batch``) into one planner batch executed off the event loop — so
one slow shard never stalls another's windows, and per-dispatch overhead
(a pipe round-trip, for process shards) is paid once per window instead
of once per query.  ``max_wait`` is the knob: longer windows coalesce
more (throughput) at a latency floor, ``max_wait=0`` still coalesces
opportunistically under load.  Ingest ticks serialize against
in-flight windows.  The gateway holds no warm state of its own: each
``Locater`` behind it owns one and pulls its freshness from the table
at the top of the next window.  The concurrent equivalence contract
extends the core invariant: any interleaving of gateway calls returns
bitwise the answers, storage writes and summed cache counters of the
same queries run through plain ``locate_batch``, and a default cluster
behind the gateway answers like a lone ``Locater`` replaying the same
windows (``tests/integration/test_gateway_equivalence.py`` — the
realized schedule is journaled and replayed).  Throughput and latency
behind the gateway are gated by perfbench's ``gateway`` workload::

    from repro import AsyncGateway, ShardedLocater

    cluster = ShardedLocater(building, metadata, table, shard_count=2)
    async with AsyncGateway(cluster, max_wait=0.002, max_batch=64) as gw:
        answers = await asyncio.gather(*(gw.locate(mac, t)
                                         for mac, t in calls))

See :mod:`repro.serve` for the lane architecture and
``examples/async_gateway.py`` for a closed-loop serving walkthrough.

Contracts
---------

Every equivalence suite above asserts *bitwise* identical answers, and
that property rests on invariants the tests cannot see directly.  Two
hold by construction.  No memo outlives the events it was computed
from: every ``Locater`` resets its warm batch state whole whenever the
table's generation moves, while trained coarse models and device
affinities are still invalidated per changed device.  And the reference
oracles the property suites judge the array cores by live in
``tests/oracles/``, where nothing in ``src/`` can import them.  The
rest are coding conventions that ``repro-lint``
(:mod:`repro.tools.lint`; run with ``python -m repro.tools.lint
src/repro``) enforces mechanically — each rule is checked by the named
module and exercised by seeded-mutation fixtures in ``tests/lint/``:

* **RL002 determinism**
  (:mod:`repro.tools.lint.checkers.determinism`) — answer-path modules
  (``repro/{fine,coarse,cache,system,cluster,events}``) never iterate
  sets or ``.keys()`` without ``sorted()``, never call ``time.time()``,
  the global ``random`` module, legacy ``np.random`` state, or an
  unseeded ``np.random.default_rng()``.
* **RL003 shared-memory-lifecycle**
  (:mod:`repro.tools.lint.checkers.lifecycle`) — classes that create
  ``SharedMemory`` segments reach both ``close()`` and ``unlink()``
  from a teardown path, and every unlink is ownership-gated (attached
  views never unlink — the rule stated under *Memory architecture*).
* **RL004 dtype-contracts**
  (:mod:`repro.tools.lint.checkers.dtypes`) — array constructors in the
  column-store and posterior modules always pin an explicit ``dtype=``
  (the byte-layout contracts ``TIMES_DTYPE``/``APS_DTYPE`` depend on
  declared widths, not numpy defaults).
* **RL006 typed-pipe-failures**
  (:mod:`repro.tools.lint.checkers.supervision`) — cluster pipe
  send/recv always maps transport failures to the typed shard errors
  the supervisor's recovery policy dispatches on; a bare ``send``
  would turn a crashed worker into an untyped hang.
* **RL007 event-loop-hygiene**
  (:mod:`repro.tools.lint.checkers.eventloop`) — coroutine bodies in
  the serving layer (``repro/serve``) never call the blocking
  dispatch/ingest surfaces directly; every blocking step goes through
  ``loop.run_in_executor``, so one window's work can never stall the
  event loop that every other lane schedules on.
"""

from repro.cache import (
    AffinityComponents,
    CachingEngine,
    GlobalAffinityGraph,
    LocalAffinityGraph,
)
from repro.cluster import (
    ClusterCacheStats,
    ComponentAffinityRouter,
    Fault,
    FaultInjectingExecutor,
    FaultPlan,
    ProcessShardExecutor,
    RecoveryEvent,
    RecoveryPolicy,
    SerialShardExecutor,
    ShardExecutor,
    ShardSupervisor,
    ShardedLocater,
)
from repro.coarse import (
    BootstrapLabeler,
    CoarseLocalizer,
    CoarseResult,
    SelfTrainingClassifier,
)
from repro.errors import (
    ClusterError,
    ConfigurationError,
    GatewayClosedError,
    GatewayError,
    GatewayOverloadedError,
    InvalidEventError,
    InvalidQueryError,
    LocalizationError,
    ReproError,
    ShardQuarantinedError,
    ShardTimeoutError,
    ShardUnavailableError,
    SimulationError,
    SpaceModelError,
    StorageError,
    TrainingError,
)
from repro.events import (
    ColumnStore,
    ConnectivityEvent,
    DeltaEstimator,
    Device,
    EventTable,
    Gap,
    HeapColumnStore,
    SharedMemoryColumnStore,
    extract_gaps,
    find_gap_at,
)
from repro.fine import (
    DeviceAffinityIndex,
    FineLocalizer,
    FineMode,
    FineResult,
    GroupAffinityModel,
    RoomAffinityModel,
    RoomAffinityWeights,
)
from repro.serve import AsyncGateway, GatewayStats
from repro.sim import Dataset, PersonProfile, ScenarioSpec, Simulator
from repro.space import (
    AccessPoint,
    Building,
    BuildingBuilder,
    Region,
    Room,
    RoomIndex,
    RoomType,
    SpaceMetadata,
    airport_blueprint,
    campus_blueprint,
    dbh_blueprint,
    mall_blueprint,
    office_blueprint,
    university_blueprint,
)
from repro.system import (
    Baseline1,
    Baseline2,
    IngestionEngine,
    IngestReport,
    InMemoryStorage,
    Locater,
    LocaterConfig,
    LocationAnswer,
    LocationQuery,
    QueryGroup,
    QueryPlan,
    SqliteStorage,
    StreamingSession,
    plan_queries,
)

__version__ = "1.0.0"

__all__ = [
    "AccessPoint",
    "AffinityComponents",
    "AsyncGateway",
    "Baseline1",
    "Baseline2",
    "BootstrapLabeler",
    "Building",
    "BuildingBuilder",
    "CachingEngine",
    "ClusterCacheStats",
    "ClusterError",
    "CoarseLocalizer",
    "ColumnStore",
    "ComponentAffinityRouter",
    "CoarseResult",
    "ConfigurationError",
    "ConnectivityEvent",
    "Dataset",
    "DeltaEstimator",
    "Device",
    "DeviceAffinityIndex",
    "EventTable",
    "Fault",
    "FaultInjectingExecutor",
    "FaultPlan",
    "FineLocalizer",
    "FineMode",
    "FineResult",
    "Gap",
    "GatewayClosedError",
    "GatewayError",
    "GatewayOverloadedError",
    "GatewayStats",
    "GlobalAffinityGraph",
    "GroupAffinityModel",
    "HeapColumnStore",
    "IngestReport",
    "IngestionEngine",
    "InMemoryStorage",
    "InvalidEventError",
    "InvalidQueryError",
    "LocalAffinityGraph",
    "LocalizationError",
    "Locater",
    "LocaterConfig",
    "LocationAnswer",
    "LocationQuery",
    "PersonProfile",
    "ProcessShardExecutor",
    "QueryGroup",
    "QueryPlan",
    "RecoveryEvent",
    "RecoveryPolicy",
    "Region",
    "ReproError",
    "Room",
    "RoomAffinityModel",
    "RoomAffinityWeights",
    "RoomIndex",
    "RoomType",
    "ScenarioSpec",
    "SelfTrainingClassifier",
    "SerialShardExecutor",
    "ShardExecutor",
    "ShardQuarantinedError",
    "ShardSupervisor",
    "ShardTimeoutError",
    "ShardUnavailableError",
    "SharedMemoryColumnStore",
    "ShardedLocater",
    "SimulationError",
    "Simulator",
    "SpaceMetadata",
    "SpaceModelError",
    "SqliteStorage",
    "StorageError",
    "StreamingSession",
    "TrainingError",
    "airport_blueprint",
    "campus_blueprint",
    "dbh_blueprint",
    "extract_gaps",
    "find_gap_at",
    "mall_blueprint",
    "office_blueprint",
    "plan_queries",
    "university_blueprint",
    "__version__",
]
