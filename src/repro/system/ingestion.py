"""Ingestion engine (paper Fig. 5): stream events into table + storage.

Real deployments receive association events from wireless controllers via
SNMP/NETCONF/Syslog; here any iterable of :class:`ConnectivityEvent`
plays that role.  The engine assigns event ids, forwards rows to the
storage engine in batches, and maintains the in-memory
:class:`~repro.events.table.EventTable` the cleaning engine reads.

Ingestion is an *online* operation: every :meth:`IngestionEngine.ingest`
call merges the new rows incrementally (see ``EventTable.freeze``),
re-estimates δ only for the devices whose logs actually changed, and
returns an :class:`IngestReport` naming them.  The engine notifies
no one: the merge moves the table's generation, and every
:class:`~repro.system.locater.Locater` over the table notices that at
its next serve and invalidates what the new rows staled
(``Locater.on_ingest``).  The one thing the engine invalidates itself
is its own store: when it persists rows, it purges the store's cleaned
answers in the same call, so the store never holds an answer older
than its rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable

from repro.events.event import ConnectivityEvent
from repro.events.table import EventTable
from repro.events.validity import DeltaEstimator
from repro.system.storage import StorageEngine


#: Rows per storage write.
STORAGE_BATCH_ROWS = 1000


@dataclass(frozen=True, slots=True)
class IngestReport:
    """What one :meth:`IngestionEngine.ingest` call changed.

    The engine returns one per call; a ``Locater``'s pull builds one
    spanning every merge since its last serve.

    Attributes:
        count: Events ingested by this call (0 in a pulled report: the
            change feed does not count rows).
        generation: The table generation after the merge (pass to
            ``EventTable.changed_since`` to resume the change feed).
        changed: The MACs of the devices whose logs the merge changed.
    """

    count: int
    generation: int
    changed: frozenset[str] = frozenset()


class IngestionEngine:
    """Feeds connectivity events into the system.

    Args:
        table: Event table the cleaning engine queries.
        storage: Optional storage engine receiving the raw (dirty) rows;
            an ingest that changes the table also purges its cleaned
            answers.  Rows reach it in writes of
            :data:`STORAGE_BATCH_ROWS`.

    After each ingest batch the engine re-estimates δ for the devices
    whose logs changed (cheap, and keeps validity windows calibrated as
    data grows).

    Event ids continue from whatever the table or storage already holds,
    so a second engine — or one restarted over a persisted store — never
    reissues ids that collide with existing rows.
    """

    def __init__(self, table: EventTable,
                 storage: "StorageEngine | None" = None) -> None:
        self._table = table
        self._storage = storage
        self._estimator = DeltaEstimator()
        seed = table.max_event_id
        if storage is not None:
            seed = max(seed, storage.max_event_id())
        self._next_event_id = seed + 1

    @property
    def table(self) -> EventTable:
        """The event table maintained by this engine."""
        return self._table

    def resync_event_ids(self) -> int:
        """Catch the id counter up with the table and storage maxima.

        Two engines over one table each seed their counter at
        construction — if both then ingest, the second would reissue
        the first's ids.  :meth:`ingest` therefore resyncs before
        stamping (the counter only ever moves forward, so with a single
        engine this is a no-op); the method is public for owners that
        want the next id without ingesting.  Returns the next id that
        will be issued.
        """
        seed = self._table.max_event_id
        if self._storage is not None:
            seed = max(seed, self._storage.max_event_id())
        self._next_event_id = max(self._next_event_id, seed + 1)
        return self._next_event_id

    def ingest(self, events: Iterable[ConnectivityEvent]) -> IngestReport:
        """Consume a stream of events; returns what changed.

        The report's ``count`` says how many events were ingested; its
        ``changed`` set says which devices changed.
        When anything changed, the storage's cleaned answers are purged
        before this returns.
        """
        # Another engine over the same table (a cluster's and a
        # streaming session's, say) may have stamped ids since this one
        # last looked; never reissue them.
        self.resync_event_ids()
        generation_before = self._table.generation
        batch: list[ConnectivityEvent] = []
        count = 0
        for event in events:
            stamped = ConnectivityEvent(
                timestamp=event.timestamp, mac=event.mac, ap_id=event.ap_id,
                event_id=self._next_event_id)
            self._next_event_id += 1
            self._table.append(stamped)
            batch.append(stamped)
            count += 1
            if len(batch) >= STORAGE_BATCH_ROWS:
                self._flush(batch)
                batch = []
        if batch:
            self._flush(batch)
        self._table.freeze()
        changed = self._table.changed_since(generation_before)
        if changed:
            self._estimator.fit_devices(self._table, sorted(changed))
        if self._storage is not None and changed:
            # The store now holds rows its answers were not cleaned
            # against; purge them in the same call, so a system rebuilt
            # over the store (after a restart, say) never reads one.
            self._storage.clear_answers()
        return IngestReport(count=count, generation=self._table.generation,
                            changed=changed)

    def _flush(self, batch: list[ConnectivityEvent]) -> None:
        if self._storage is not None:
            self._storage.store_events(batch)
