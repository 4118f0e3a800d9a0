"""The LOCATER facade: coarse cleaning → fine cleaning → caching (Fig. 5)."""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from collections.abc import Iterable

from repro.coarse.bootstrap import BootstrapLabeler
from repro.coarse.localizer import CoarseLocalizer, CoarseSharedState
from repro.cache.engine import CachingEngine
from repro.events.table import EventTable
from repro.fine.affinity import DeviceAffinityIndex, RoomAffinityModel
from repro.fine.localizer import FineLocalizer, FineResult, FineSharedState
from repro.fine.neighbors import NeighborIndex, find_neighbors
from repro.space.building import Building
from repro.space.metadata import SpaceMetadata
from repro.system.config import LocaterConfig
from repro.system.planner import plan_queries
from repro.errors import EmptyHistoryError
from repro.system import streaming
from repro.system.ingestion import IngestReport
from repro.system.query import LocationQuery
from repro.system.storage import StorageEngine
from repro.util.timeutil import SECONDS_PER_DAY, TimeInterval, day_span


@dataclass(frozen=True, slots=True)
class LocationAnswer:
    """The cleaned location of a device at the queried time.

    Attributes:
        query: The original query.
        inside: Whether the device was inside the building.
        region_id: Region when inside, else None.
        room_id: Room when inside, else None.
        from_event: Coarse answer came straight from a valid event.
        fine: The full fine-grained result (None when outside).
    """

    query: LocationQuery
    inside: bool
    region_id: "int | None"
    room_id: "str | None"
    from_event: bool
    fine: "FineResult | None"

    @property
    def location_label(self) -> str:
        """Compact label: ``outside`` or the room id."""
        if not self.inside:
            return "outside"
        return self.room_id if self.room_id is not None else "unknown"

    def __str__(self) -> str:
        if not self.inside:
            return f"{self.query} → outside"
        return (f"{self.query} → room {self.room_id} "
                f"(region g{self.region_id})")


#: Bound on a Locater's neighbor-snapshot memo (one entry per distinct
#: query timestamp); oldest-inserted snapshots evict first.
MAX_SNAPSHOTS = 4096

#: When any one of a Locater's affinity/gap-label memo dicts outgrows
#: this by the end of a ``locate_batch`` call, it is cleared wholesale —
#: memos are pure caches, so the only cost is recomputation, and
#: wholesale clearing keeps the steady-state bookkeeping trivial.
MAX_MEMO_ENTRIES = 65536


@dataclass
class BatchState:
    """Shared-computation state threaded through ``locate_batch``.

    Every :class:`Locater` owns one and keeps it warm across calls
    (every memo is a pure function of table state, so reuse never
    changes answers).  The pull at the top of each call keeps it fresh:
    whenever the table's generation moved, :meth:`reset` empties it
    whole.
    """

    neighbors: NeighborIndex
    coarse: CoarseSharedState = field(default_factory=CoarseSharedState)
    fine: FineSharedState = field(default_factory=FineSharedState)

    def reset(self) -> None:
        """Forget every memo and snapshot: the state of a fresh one.

        Binds fresh shared states on this same object, so every holder
        of it sees the reset.
        """
        self.coarse = CoarseSharedState()
        self.fine = FineSharedState()
        self.neighbors.invalidate_all()

    def memo_dicts(self) -> list[dict]:
        """Every memo dict of this state: each field of its shared states.

        The single enumeration the :data:`MAX_MEMO_ENTRIES` trim
        iterates; resolved on each call because :meth:`reset` rebinds
        the shared states.
        """
        return [getattr(shared, memo.name)
                for shared in (self.coarse, self.fine)
                for memo in fields(shared)]


@dataclass(frozen=True, slots=True)
class InvalidationSummary:
    """What :meth:`Locater.on_ingest` invalidated.

    Attributes:
        full: Every trained model and memo was dropped (the training
            window itself moved — sliding ``history_days`` window, or
            the table span's day range changed, which shifts the density
            feature of *every* device).
        answers_dropped: Cleaned answers purged from storage (0 when
            the engine that merged the rows into that same store
            purged them first).
    """

    full: bool
    answers_dropped: int


class Locater:
    """The online location cleaning system of the paper.

    Args:
        building: Space model.
        metadata: Per-device preferred-room metadata.
        table: Connectivity events table (already ingested).
        config: Pipeline configuration; defaults to the paper's best.
        storage: Optional storage engine; cleaned answers are persisted
            and exact-repeat queries short-circuit to the stored answer.
        room_model: Optional room-affinity model override — e.g. a
            :class:`~repro.fine.time_dependent.TimeDependentRoomAffinityModel`
            carrying per-time-of-day preference schedules.  Defaults to
            the static model built from ``metadata`` and the configured
            weights.

    Example:
        >>> locater = Locater(building, metadata, table)
        >>> answer = locater.locate("7fbh", timestamp)
        >>> answer.room_id
        '2061'
    """

    def __init__(self, building: Building, metadata: SpaceMetadata,
                 table: EventTable,
                 config: "LocaterConfig | None" = None,
                 storage: "StorageEngine | None" = None,
                 room_model: "RoomAffinityModel | None" = None) -> None:
        self.config = config or LocaterConfig()
        self._building = building
        self._metadata = metadata
        self._table = table
        self._storage = storage

        history = self._resolve_history()
        bootstrap = BootstrapLabeler(
            building,
            tau_low=self.config.tau_low,
            tau_high=self.config.tau_high,
            tau_region_low=self.config.tau_region_low,
            tau_region_high=self.config.tau_region_high)
        self.coarse = CoarseLocalizer(
            building, table, bootstrap=bootstrap, history=history,
            batch_size=self.config.self_training_batch)
        self._room_model = room_model if room_model is not None else \
            RoomAffinityModel(metadata, weights=self.config.room_weights)
        self._device_index = DeviceAffinityIndex(
            table, history=history,
            reuse_cache=self.config.reuse_affinity_cache)
        self.fine = FineLocalizer(
            building, table, self._room_model, self._device_index,
            mode=self.config.fine_mode,
            use_stop_conditions=self.config.use_stop_conditions,
            max_neighbors=self.config.max_neighbors,
            affinity_cap=self.config.affinity_cap,
            affinity_noise_floor=self.config.affinity_noise_floor)
        self.cache = CachingEngine(sigma=self.config.cache_sigma) \
            if self.config.use_caching else None
        self._history_fingerprint = self._span_fingerprint()
        # The one warm state, and what the pull compares against: the
        # table generation last caught up with (see _catch_up).
        self._state = BatchState(neighbors=NeighborIndex(
            building, table, max_snapshots=MAX_SNAPSHOTS))
        self.full_invalidations = 0
        self._seen_generation = table.generation

    def _resolve_history(self) -> "TimeInterval | None":
        if self.config.history_days is None:
            return None
        span = self._table.span()
        start = max(span.start, span.end -
                    self.config.history_days * SECONDS_PER_DAY)
        return TimeInterval(start, span.end)

    def _span_fingerprint(self) -> "tuple[int, int] | None":
        """(first day, last day) of the table span, or None when empty.

        The coarse gap features depend on the training window only
        through this day range (the density feature divides by the
        number of days), so as long as the fingerprint is stable an
        unchanged device's trained models stay valid under the grown
        window — the invariant behind surgical invalidation.
        """
        try:
            span = self._table.span()
        except EmptyHistoryError:
            return None
        return day_span(span)

    # ------------------------------------------------------------------
    @property
    def building(self) -> Building:
        """The space model this system cleans against."""
        return self._building

    @property
    def table(self) -> EventTable:
        """The connectivity events table."""
        return self._table

    # ------------------------------------------------------------------
    def locate(self, mac: str, timestamp: float) -> LocationAnswer:
        """Answer Q = (mac, timestamp) through the full cleaning pipeline."""
        return self.locate_query(LocationQuery(mac=mac, timestamp=timestamp))

    def locate_query(self, query: LocationQuery,
                     state: "BatchState | None" = None) -> LocationAnswer:
        """Answer one :class:`LocationQuery` — the single-query code path.

        ``locate`` and the batch engine's per-query execution both funnel
        through here; cluster shards route to this entry point too.  It
        first pulls whatever the table merged since the last call (see
        :meth:`on_ingest`).  ``state`` is the hook ``locate_batch``
        passes its owned warm state through; left None, the query takes
        the memo-free reference path.
        """
        self._catch_up()
        return self._locate_one(query, state)

    def locate_batch(self, queries: Iterable[LocationQuery]
                     ) -> list[LocationAnswer]:
        """Answer a batch of queries with shared computation.

        The batch is planned by :func:`~repro.system.planner.plan_queries`
        — grouped by (device, time bucket), groups executed in
        bucket-granular timestamp order so the caching engine warms
        front-to-back — then each group is answered with shared neighbor
        snapshots, coarse gap labels, and fine-grained affinity memos.
        Those live in the system's one warm state, which outlives the
        call: the next batch starts from it, after the pull at the top
        of every call has invalidated whatever the table merged since
        (see :meth:`on_ingest`).  A memo dict that outgrew
        :data:`MAX_MEMO_ENTRIES` during the call is cleared at its end.

        Answers are **bitwise identical** to calling :meth:`locate` once
        per query in the plan's execution order
        (``plan_queries(queries).ordered_queries()``) on a fresh system,
        including cache hit/miss counters and storage persistence; only
        redundant work is shared, never skipped.  Answers are returned
        in *input* order.

        Args:
            queries: The batch, in any order.  The paper's per-query
                cost model (§6.4) is :meth:`locate` once per query in
                plan order — lazy training, no memos — and that is what
                the Fig. 10/12 drivers time.

        Raises:
            UnknownDeviceError: A query names a MAC the table has never
                seen.  Raised before any query is answered, so nothing
                is persisted and no cache edge is recorded.

        Example:
            >>> answers = locater.locate_batch(
            ...     [LocationQuery("7fbh", t) for t in grid])
            >>> [a.location_label for a in answers]
        """
        self._catch_up()
        queries = list(queries)
        registry = self._table.registry
        for query in queries:
            registry.get(query.mac)  # raises UnknownDeviceError
        plan = plan_queries(queries)
        # Bulk-train before executing: one vectorized sweep over the
        # devices whose queries will actually consult models (a gap
        # query; event hits never train), instead of lazy one-at-a-time
        # training inside the burst.  Training is pure, so answers are
        # unchanged.
        self.coarse.train_devices(self._devices_needing_models(plan))
        state = self._state
        answers: "list[LocationAnswer | None]" = [None] * len(queries)
        for planned in plan.ordered():
            answers[planned.index] = self.locate_query(planned.query, state)
        for memo in state.memo_dicts():
            if len(memo) > MAX_MEMO_ENTRIES:
                memo.clear()
        return answers  # type: ignore[return-value]  # every slot filled

    def _devices_needing_models(self, plan) -> list[str]:
        """Devices of a plan with at least one gap query (training needed).

        Mirrors the lazy criterion exactly — including the storage
        short-circuit: a query whose answer is already persisted never
        reaches the coarse models, so it must not trigger training
        either.  The pre-pass therefore trains the same device set a
        sequential run would, just in one bulk sweep up front.
        """
        needed: set[str] = set()
        for group in plan.groups:
            if group.mac in needed:
                continue
            for planned in group.queries:
                # Cheap binary-search check first; the storage lookup
                # only runs for the gap queries that would train.
                if not self.coarse.needs_model(group.mac,
                                               planned.query.timestamp):
                    continue
                if self._storage is not None and self._storage.find_answer(
                        group.mac, planned.query.timestamp) is not None:
                    continue
                needed.add(group.mac)
                break
        return sorted(needed)

    def _locate_one(self, query: LocationQuery,
                    state: "BatchState | None") -> LocationAnswer:
        """The per-query pipeline; ``state`` shares work across a batch."""
        mac, timestamp = query.mac, query.timestamp
        if self._storage is not None:
            cached = self._storage.find_answer(mac, timestamp)
            if cached is not None:
                return self._answer_from_stored(query, cached)

        coarse = self.coarse.locate(
            mac, timestamp, shared=state.coarse if state else None)
        if not coarse.inside or coarse.region_id is None:
            answer = LocationAnswer(query=query, inside=False,
                                    region_id=None, room_id=None,
                                    from_event=coarse.from_event, fine=None)
            self._persist(answer)
            return answer

        if state is not None:
            neighbors = state.neighbors.neighbors_for(
                mac, timestamp, coarse.region_id,
                max_neighbors=self.config.max_neighbors)
        else:
            neighbors = find_neighbors(
                self._building, self._table, mac, timestamp,
                coarse.region_id, max_neighbors=self.config.max_neighbors)
        # Caps arrive as a float vector aligned with the reordered
        # neighbor list (NaN = no cached bound) — the representation the
        # fine localizer's bounds machinery consumes directly.
        caps = None
        if self.cache is not None:
            neighbors, caps = self.cache.prepare_neighbors(
                mac, neighbors, timestamp)

        fine = self.fine.locate(mac, timestamp, coarse.region_id,
                                neighbor_order=neighbors,
                                neighbor_caps=caps,
                                shared=state.fine if state else None)

        if self.cache is not None and fine.edge_weights:
            self.cache.record(mac, timestamp, fine.edge_weights)

        answer = LocationAnswer(query=query, inside=True,
                                region_id=coarse.region_id,
                                room_id=fine.room_id,
                                from_event=coarse.from_event, fine=fine)
        self._persist(answer)
        return answer

    # ------------------------------------------------------------------
    # Online ingestion
    # ------------------------------------------------------------------
    def _catch_up(self) -> None:
        """Pull freshness from the table: invalidate what it merged since
        the last call.

        Runs first in every serve.  Reading the table's generation
        freezes pending appends first, as every table read does; when
        the generation is where it was, nothing happened and this is one
        integer compare.  Otherwise the table's change feed since the
        last catch-up becomes the report :meth:`on_ingest` acts on.  The
        seen generation advances only after that succeeded, so a failed
        catch-up is retried by the next call.
        """
        table = self._table
        generation = table.generation
        if generation == self._seen_generation:
            return
        self.on_ingest(IngestReport(
            count=0, generation=generation,
            changed=table.changed_since(self._seen_generation)))
        self._seen_generation = generation

    def on_ingest(self, report: IngestReport) -> InvalidationSummary:
        """Invalidate what one change to the table staled.

        The step the pull at the top of every serve runs when the
        table's generation moved, whichever engine (or bare ``append``)
        moved it — nothing needs wiring to an ingest path.  Calling it
        directly with an :class:`~repro.system.ingestion.IngestReport`
        is redundant but harmless: the next serve pulls the same change
        again, and every step below is idempotent.

        The warm batch state — neighbor snapshots and every coarse and
        fine memo — is reset whole on every change
        (:func:`~repro.system.streaming.prune_batch_state`): each is a
        cheap pure function of the table that the next burst recomputes
        on demand.  Trained coarse models and device affinities are what
        cost, so those are invalidated *surgically* when provably safe:
        only the changed devices' models and affinities and (when they
        fed it) the population aggregate are dropped — a rebuilt system
        would reproduce the survivors bit for bit, because each is a
        pure function of inputs the ingest did not touch.  When the
        training window itself moved (``history_days`` sliding window,
        or the span's day range grew, which changes every device's
        density feature), invalidation escalates to a full drop of every
        model, counted in ``full_invalidations``.  Cleaned answers in
        storage are always purged: co-location couples devices, so no
        stored answer is provably unaffected.  (An engine that persists
        the rows into that store has purged it already, inside its
        ``ingest``, so a system built over the store before this serve
        finds no stale answer either.)

        Invalidated devices are *not* retrained here: a device may change
        on many consecutive ingest ticks before it is queried again, so
        training inside the ingest path would redo work lazily-trained
        systems never pay.  The retrain instead happens in bulk at the
        next serve — ``locate_batch`` pre-trains every device its plan
        touches via ``CoarseLocalizer.train_devices``, so the first
        post-ingest burst pays one vectorized sweep over exactly the
        devices it needs.
        """
        if not report.changed:
            # Nothing merged (e.g. an empty poll tick): every cached
            # model, memo and stored answer is still exact.
            return InvalidationSummary(full=False, answers_dropped=0)
        answers_dropped = self._storage.clear_answers() \
            if self._storage is not None else 0
        fingerprint = self._span_fingerprint()
        full = self.config.history_days is not None or \
            fingerprint != self._history_fingerprint
        if full:
            history = self._resolve_history()
            self.coarse.set_history(history)
            self._device_index.set_history(history)
            self.full_invalidations += 1
        else:
            # The span may have grown inside the same day range; models
            # survive (see _span_fingerprint), but the lazily-cached
            # window must track what a cold rebuild would resolve.
            self.coarse.advance_history(self._table.span())
            self.coarse.invalidate_devices(report.changed)
            self._device_index.invalidate_devices(report.changed)
        # Through the module attribute, so a wrapped policy sees the
        # call.
        streaming.prune_batch_state(self._state)
        # Only now: a failure above leaves the old fingerprint, so a
        # retry escalates exactly as this attempt did.
        self._history_fingerprint = fingerprint
        return InvalidationSummary(full=full,
                                   answers_dropped=answers_dropped)

    # ------------------------------------------------------------------
    def _persist(self, answer: LocationAnswer) -> None:
        if self._storage is not None:
            self._storage.store_answer(answer.query.mac,
                                       answer.query.timestamp,
                                       answer.location_label)

    def _answer_from_stored(self, query: LocationQuery,
                            stored: str) -> LocationAnswer:
        if stored == "outside":
            return LocationAnswer(query=query, inside=False, region_id=None,
                                  room_id=None, from_event=False, fine=None)
        # A room routinely spans several overlapping regions (paper Fig. 1);
        # the stored answer keeps only the room, so resolve the region
        # deterministically as the lowest region id rather than trusting
        # whatever order the building happens to list them in.
        regions = self._building.regions_of_room(stored)
        region_id = min(r.region_id for r in regions) if regions else None
        return LocationAnswer(query=query, inside=True, region_id=region_id,
                              room_id=stored, from_event=False, fine=None)
