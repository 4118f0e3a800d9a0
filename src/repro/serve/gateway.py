"""Admission-controlled micro-batching gateway over Locater / the cluster.

Architecture (one box per concern)::

    locate(mac, t) ──► admission ──► lane queue ──► window ──► executor
      coroutine        (bounded       (one per       (max_wait /   off-ramp
                        pending,       shard, routed   max_batch)   (thread
                        typed shed)    by shard_of)                 pool)

* **Admission control** — a global bound on queries admitted but not
  yet answered.  Past it, :meth:`AsyncGateway.locate` raises
  :class:`~repro.errors.GatewayOverloadedError` *immediately* (bounded
  queue depth, typed rejection) instead of queueing into unbounded
  latency; cooperative clients ``await gateway.ready()`` for the
  backpressure signal to clear.  A query for a MAC the table has
  never seen is rejected there too, with
  :class:`~repro.errors.UnknownDeviceError`, so it fails its own caller
  and never the window it would have joined.
* **Lanes** — one submission queue per shard, routed by the cluster's
  :meth:`~repro.cluster.sharded.ShardedLocater.shard_of` (a lone
  ``Locater`` is one lane).  Each lane's worker coroutine gathers a
  window — up to ``max_wait`` seconds from pickup or ``max_batch``
  queries, whichever first — and executes it as one planner batch via
  :meth:`~repro.cluster.sharded.ShardedLocater.locate_slice`, so lanes
  never wait on each other's shards.
* **The executor off-ramp** — coroutines only enqueue, coordinate and
  resolve futures; every blocking step (planner-batch dispatch, ingest
  merges) runs on a thread pool via ``loop.run_in_executor``.  Lint
  rule RL007 enforces this for the whole package.
* **Warm state** — the gateway holds none.  Each ``Locater`` behind it
  (a lone backend, or every shard's, in-process or worker-side) owns
  one warm batch state and pulls its freshness from the table's
  generation at the top of each window, so neighbor snapshots,
  affinity memos and §5 cache counters survive across windows exactly
  as they do across a streaming session's bursts.
* **Ingest serialization** — :meth:`AsyncGateway.ingest` acquires every
  lane's lock, so it runs strictly *between* windows: no window ever
  straddles a merge, and queued queries are re-routed before lanes
  resume (a caching cluster re-keys devices at ingest boundaries, and
  ``ShardedLocater.ingest`` has caught the routes up before it
  returns, so ``shard_of`` on the loop never finds work to do).  The
  served table must therefore be written only through this method: a
  merge from anywhere else would race the lanes' table reads, and the
  first route read after it would run the cluster's catch-up (shard
  IPC included) on the event loop.

Equivalence contract — the repo's core invariant, extended to the
concurrent world: any interleaving of concurrent gateway calls returns
bitwise the answers (and storage side effects, and summed §5 cache
counters) of the same queries run through plain ``locate_batch``.
Concretely:

* With answers pure functions of the table (caching off, no storage),
  *any* schedule of gateway calls equals one big ``locate_batch`` of
  the same queries — window boundaries can't matter, which is what the
  planner's arrival-order invariance (``tests/property/
  test_prop_planner_order.py``) guarantees per window.
* With warm state in play (caching, storage), equality is per realized
  schedule: enable ``journal=True`` and the gateway records every
  executed window and ingest tick in serialization order; replaying
  the journal through plain ``locate_batch`` calls on an identically
  built system reproduces every answer, storage write and cache
  counter bitwise (``tests/integration/test_gateway_equivalence.py``).

Nothing here touches answer *values*: the gateway decides only which
queries share a planner batch, never how any query is answered.
"""

from __future__ import annotations

import asyncio
import threading
from collections.abc import Iterable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.cluster.sharded import ShardedLocater
from repro.errors import (
    ConfigurationError,
    GatewayClosedError,
    GatewayOverloadedError,
    UnknownDeviceError,
)
from repro.events.event import ConnectivityEvent
from repro.system.ingestion import IngestionEngine, IngestReport
from repro.system.locater import Locater, LocationAnswer
from repro.system.query import LocationQuery

#: Lane-queue sentinel: the worker drains up to it, then exits.
_CLOSE = object()


@dataclass(frozen=True, slots=True)
class WindowRecord:
    """One executed batching window, in lane-serialization order.

    ``answers[i]`` is exactly what the caller of ``queries[i]``
    received — the journal is the realized schedule the equivalence
    suite replays through plain ``locate_batch``.
    """

    lane: int
    queries: tuple[LocationQuery, ...]
    answers: tuple[LocationAnswer, ...]


@dataclass(frozen=True, slots=True)
class IngestRecord:
    """One ingest tick: the (unstamped) events, in serialization order.

    Replays re-ingest these through an identical engine, which stamps
    the same ids — the journal needs no post-stamp state.
    """

    count: int
    events: tuple[ConnectivityEvent, ...]


@dataclass(frozen=True, slots=True)
class GatewayStats:
    """Serving counters (admission, coalescing, backpressure).

    Attributes:
        submitted: Queries admitted past admission control.
        completed: Queries answered successfully.
        failed: Queries whose window raised (the exception propagated
            to every caller in the window).
        shed: Queries rejected with ``GatewayOverloadedError``.
        windows: Planner batches executed.
        ingests: Ingest ticks serialized through the gateway.
        pending: Queries currently admitted but unanswered.
        pending_peak: High-water mark of ``pending`` — bounded by
            ``max_pending`` whenever admission control is on.
        coalesced_max: Largest window executed.
    """

    submitted: int
    completed: int
    failed: int
    shed: int
    windows: int
    ingests: int
    pending: int
    pending_peak: int
    coalesced_max: int

    @property
    def coalescing(self) -> float:
        """Mean queries per executed window (1.0 = no coalescing)."""
        return self.completed / self.windows if self.windows else 0.0


class _Pending:
    """One admitted query waiting for its window."""

    __slots__ = ("query", "future")

    def __init__(self, query: LocationQuery,
                 future: "asyncio.Future[LocationAnswer]") -> None:
        self.query = query
        self.future = future


class _Lane:
    """One shard's submission queue, window lock and worker state."""

    __slots__ = ("lane_id", "queue", "lock")

    def __init__(self, lane_id: int) -> None:
        self.lane_id = lane_id
        self.queue: "asyncio.Queue[object]" = asyncio.Queue()
        self.lock = asyncio.Lock()


class AsyncGateway:
    """Coalesce concurrent ``locate`` calls into planner batches.

    Args:
        backend: A :class:`~repro.system.locater.Locater` or
            :class:`~repro.cluster.sharded.ShardedLocater`.  The caller
            keeps ownership — closing the gateway never closes the
            backend — but while the gateway serves, the backend's table
            takes new rows only through :meth:`ingest`.
        max_wait: Seconds a lane worker waits (from window pickup) for
            more queries before executing; ``0`` executes whatever is
            queued the moment the worker is free (coalescing still
            happens under load, with no timed latency floor).
        max_batch: Queries per window; a full window executes without
            waiting out ``max_wait``.  ``max_batch=1`` disables
            coalescing.
        max_pending: Admission bound on queries admitted but
            unanswered; past it ``locate`` sheds with
            :class:`~repro.errors.GatewayOverloadedError`.
        journal: Record every executed window and ingest tick (see
            :class:`WindowRecord`).  Off by default — the journal grows
            without bound and exists for equivalence proofs and replay
            debugging, not production serving.

    Construction is cheap and synchronous; the event-loop resources
    (lanes, workers, thread pool) are created by
    :meth:`start`, implicitly on first use, or by ``async with``.

    With a supervised cluster (``recovery=``) the gateway serializes
    shard dispatch globally — the supervisor's recovery bookkeeping is
    single-threaded — trading cross-lane parallelism for fault
    tolerance; unsupervised clusters dispatch lanes concurrently.
    """

    def __init__(self, backend: "Locater | ShardedLocater", *,
                 max_wait: float = 0.002, max_batch: int = 64,
                 max_pending: int = 1024,
                 journal: bool = False) -> None:
        if max_wait < 0:
            raise ConfigurationError(
                f"max_wait must be >= 0, got {max_wait}")
        if max_batch < 1:
            raise ConfigurationError(
                f"max_batch must be >= 1, got {max_batch}")
        if max_pending < 1:
            raise ConfigurationError(
                f"max_pending must be >= 1, got {max_pending}")
        self._backend = backend
        self._cluster = backend if isinstance(backend, ShardedLocater) \
            else None
        self._max_wait = max_wait
        self._max_batch = max_batch
        self._max_pending = max_pending
        self._journal: "list[WindowRecord | IngestRecord] | None" = \
            [] if journal else None
        self._lane_count = backend.shard_count \
            if self._cluster is not None else 1
        self._engine = IngestionEngine(backend.table) \
            if self._cluster is None else None
        self._lanes: list[_Lane] = []
        self._workers: list[asyncio.Task] = []
        self._loop: "asyncio.AbstractEventLoop | None" = None
        self._pool: "ThreadPoolExecutor | None" = None
        self._ready_event: "asyncio.Event | None" = None
        self._dispatch_lock: "threading.Lock | None" = None
        self._started = False
        self._closed = False
        self._pending = 0
        self._pending_peak = 0
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._shed = 0
        self._windows = 0
        self._ingests = 0
        self._coalesced_max = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "AsyncGateway":
        """Bind to the running loop and start the lane workers.

        Idempotent; contains no awaits, so concurrent first calls
        cannot double-start.  :meth:`locate` and :meth:`ingest` call it
        implicitly.
        """
        if self._closed:
            raise GatewayClosedError("gateway is closed")
        if self._started:
            return self
        self._loop = asyncio.get_running_loop()
        self._lanes = [_Lane(lane_id) for lane_id in
                       range(self._lane_count)]
        self._pool = ThreadPoolExecutor(
            max_workers=self._lane_count, thread_name_prefix="gateway")
        if self._cluster is not None and \
                self._cluster.supervisor is not None:
            self._dispatch_lock = threading.Lock()
        self._ready_event = asyncio.Event()
        self._ready_event.set()
        self._workers = [
            self._loop.create_task(self._lane_worker(lane),
                                   name=f"gateway-lane-{lane.lane_id}")
            for lane in self._lanes]
        self._started = True
        return self

    async def close(self) -> None:
        """Drain the lanes and stop the workers.

        Queries already admitted are served; anything still queued when
        the workers exit (possible only when close races an ingest's
        re-routing) fails with :class:`~repro.errors.GatewayClosedError`
        rather than hanging its caller.  Idempotent.  The backend stays
        open — the caller owns it.
        """
        if self._closed:
            return
        self._closed = True
        if self._started:
            for lane in self._lanes:
                lane.queue.put_nowait(_CLOSE)
            await asyncio.gather(*self._workers)
            for lane in self._lanes:
                while True:
                    try:
                        item = lane.queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if item is _CLOSE:
                        continue
                    assert isinstance(item, _Pending)
                    if not item.future.done():
                        item.future.set_exception(GatewayClosedError(
                            "gateway closed before this query was "
                            "served"))
                    self._release(1)
            self._pool.shutdown(wait=True)
        if self._ready_event is not None:
            self._ready_event.set()  # wake waiters into the closed error

    async def __aenter__(self) -> "AsyncGateway":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    async def locate(self, mac: str,
                     timestamp: float) -> LocationAnswer:
        """Answer one query; it shares whatever window it lands in."""
        return await self.locate_query(
            LocationQuery(mac=mac, timestamp=timestamp))

    async def locate_query(self, query: LocationQuery) -> LocationAnswer:
        """Admit, route and await one explicit query.

        A MAC the table has never seen raises
        :class:`~repro.errors.UnknownDeviceError` before admission, so it
        fails its own caller only: admitted, it would fail every query
        of its window inside ``locate_batch``.  The check is a registry
        read, and an ingest registers its MACs at once.
        """
        await self.start()
        if query.mac not in self._backend.table.registry:
            raise UnknownDeviceError(f"device {query.mac!r} never observed")
        if self._pending >= self._max_pending:
            self._shed += 1
            raise GatewayOverloadedError(self._pending, self._max_pending)
        self._pending += 1
        self._submitted += 1
        self._pending_peak = max(self._pending_peak, self._pending)
        if self._pending >= self._max_pending:
            self._ready_event.clear()
        future: "asyncio.Future[LocationAnswer]" = \
            self._loop.create_future()
        self._lanes[self._lane_of(query)].queue.put_nowait(
            _Pending(query, future))
        return await future

    async def ingest(self, events: Iterable[ConnectivityEvent]
                     ) -> IngestReport:
        """Merge new events, serialized against every in-flight window.

        Acquires all lane locks (in lane order — workers hold only
        their own, so this cannot deadlock), runs the backend's ingest
        off the loop, re-routes queued queries whose devices the ingest
        re-keyed, and releases the lanes.  Returns the ingest engine's
        report, for a lone system and a cluster alike.
        """
        await self.start()
        events = list(events)
        for lane in self._lanes:
            await lane.lock.acquire()
        try:
            report = await self._loop.run_in_executor(
                self._pool, self._ingest_sync, events)
            self._ingests += 1
            if self._journal is not None:
                self._journal.append(IngestRecord(
                    count=len(events), events=tuple(events)))
            if self._lane_count > 1:
                self._reroute_queued()
        finally:
            for lane in reversed(self._lanes):
                lane.lock.release()
        return report

    async def ready(self) -> None:
        """Backpressure signal: block until admission is open again.

        The cooperative alternative to catch-and-retry on
        ``GatewayOverloadedError`` — returns as soon as pending depth
        drops below ``max_pending``.
        """
        await self.start()
        await self._ready_event.wait()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def backend(self) -> "Locater | ShardedLocater":
        """The serving system behind the gateway."""
        return self._backend

    @property
    def lane_count(self) -> int:
        """Submission lanes (the backend's shard count; 1 when lone)."""
        return self._lane_count

    @property
    def pending(self) -> int:
        """Queries admitted but not yet answered (the queue depth)."""
        return self._pending

    @property
    def overloaded(self) -> bool:
        """Whether admission is currently shedding."""
        return self._pending >= self._max_pending

    @property
    def journal(self) -> "tuple[WindowRecord | IngestRecord, ...]":
        """The realized schedule (requires ``journal=True``)."""
        if self._journal is None:
            raise ConfigurationError(
                "journaling is off; construct the gateway with "
                "journal=True to record the realized schedule")
        return tuple(self._journal)

    def stats(self) -> GatewayStats:
        """Current serving counters."""
        return GatewayStats(
            submitted=self._submitted, completed=self._completed,
            failed=self._failed, shed=self._shed, windows=self._windows,
            ingests=self._ingests, pending=self._pending,
            pending_peak=self._pending_peak,
            coalesced_max=self._coalesced_max)

    # ------------------------------------------------------------------
    # Lane machinery (event-loop side)
    # ------------------------------------------------------------------
    def _lane_of(self, query: LocationQuery) -> int:
        if self._cluster is None:
            return 0
        return self._cluster.shard_of(query.mac)

    async def _lane_worker(self, lane: _Lane) -> None:
        """Gather windows from one lane's queue and execute them."""
        closing = False
        while not closing:
            item = await lane.queue.get()
            if item is _CLOSE:
                break
            batch = [item]
            closing = await self._gather(lane, batch)
            await self._run_window(lane, batch)

    async def _gather(self, lane: _Lane, batch: list) -> bool:
        """Fill ``batch`` up to max_batch/max_wait; True when closing."""
        if self._max_wait > 0:
            deadline = self._loop.time() + self._max_wait
            while len(batch) < self._max_batch:
                remaining = deadline - self._loop.time()
                if remaining <= 0:
                    return False
                try:
                    item = await asyncio.wait_for(lane.queue.get(),
                                                  remaining)
                except asyncio.TimeoutError:
                    return False
                if item is _CLOSE:
                    return True
                batch.append(item)
            return False
        while len(batch) < self._max_batch:
            try:
                item = lane.queue.get_nowait()
            except asyncio.QueueEmpty:
                return False
            if item is _CLOSE:
                return True
            batch.append(item)
        return False

    async def _run_window(self, lane: _Lane, items: list) -> None:
        """Execute one window under the lane lock and resolve futures."""
        async with lane.lock:
            # Re-check routing under the lock: an ingest (which held
            # every lane lock) may have re-keyed devices between
            # submission and execution; strays go to their new owner's
            # lane so per-shard storage namespaces and cache state stay
            # exact.  Routing cannot change while we hold this lock.
            if self._lane_count > 1:
                items = self._bounce_strays(lane, items)
                if not items:
                    return
            queries = [item.query for item in items]
            self._windows += 1
            self._coalesced_max = max(self._coalesced_max, len(items))
            try:
                answers = await self._loop.run_in_executor(
                    self._pool, self._execute_sync, lane.lane_id, queries)
            except Exception as exc:
                self._failed += len(items)
                for item in items:
                    if not item.future.done():
                        item.future.set_exception(exc)
                self._release(len(items))
                return
            if self._journal is not None:
                self._journal.append(WindowRecord(
                    lane=lane.lane_id, queries=tuple(queries),
                    answers=tuple(answers)))
            self._completed += len(items)
            for item, answer in zip(items, answers):
                if not item.future.done():
                    item.future.set_result(answer)
            self._release(len(items))

    def _bounce_strays(self, lane: _Lane, items: list) -> list:
        """Re-enqueue queries this lane no longer owns; return the rest."""
        kept = []
        for item in items:
            owner = self._lane_of(item.query)
            if owner == lane.lane_id:
                kept.append(item)
            else:
                self._lanes[owner].queue.put_nowait(item)
        return kept

    def _reroute_queued(self) -> None:
        """Re-route every queued query after an ingest re-keyed devices.

        Runs on the loop while every lane lock is held, so no worker is
        mid-window; order within a lane is preserved, moved items append
        to their new lane.
        """
        moved: list[_Pending] = []
        for lane in self._lanes:
            kept: list[object] = []
            while True:
                try:
                    item = lane.queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if item is _CLOSE or \
                        self._lane_of(item.query) == lane.lane_id:
                    kept.append(item)
                else:
                    moved.append(item)
            for item in kept:
                lane.queue.put_nowait(item)
        for item in moved:
            self._lanes[self._lane_of(item.query)].queue.put_nowait(item)

    def _release(self, count: int) -> None:
        self._pending -= count
        if self._pending < self._max_pending and \
                self._ready_event is not None:
            self._ready_event.set()

    # ------------------------------------------------------------------
    # Blocking side (runs on the thread pool, never on the loop)
    # ------------------------------------------------------------------
    def _execute_sync(self, lane_id: int,
                      queries: list[LocationQuery]
                      ) -> list[LocationAnswer]:
        if self._dispatch_lock is not None:
            with self._dispatch_lock:
                return self._dispatch(lane_id, queries)
        return self._dispatch(lane_id, queries)

    def _dispatch(self, lane_id: int,
                  queries: list[LocationQuery]) -> list[LocationAnswer]:
        if self._cluster is not None:
            return self._cluster.locate_slice(lane_id, queries)
        return self._backend.locate_batch(queries)

    def _ingest_sync(self, events: list[ConnectivityEvent]):
        if self._dispatch_lock is not None:
            with self._dispatch_lock:
                return self._ingest_backend(events)
        return self._ingest_backend(events)

    def _ingest_backend(self, events: list[ConnectivityEvent]):
        if self._cluster is not None:
            return self._cluster.ingest(events)
        return self._engine.ingest(events)
