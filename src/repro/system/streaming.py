"""Online serving: interleave ingestion with query answering (Fig. 5, live).

LOCATER is a *live* system — association events stream in from wireless
controllers while location queries keep arriving.  Freshness is pulled,
not pushed: the ingestion engine only appends, and every
:class:`~repro.system.locater.Locater` serve first compares the table's
generation with the last one it saw, invalidating what changed since
(``Locater.on_ingest``).  So any ingest path keeps answers fresh without
wiring, and a deployment loop is three lines::

    session = StreamingSession(locater)          # wraps locater.table
    session.ingest(new_events)                   # append + merge
    answers = session.query(burst)               # pull, then answer

The locater owns one persistent
:class:`~repro.system.locater.BatchState`, so query bursts keep reusing
neighbor snapshots and affinity memos *across* bursts, and the pull
prunes exactly the entries an ingest staled with
:func:`prune_batch_state`: memos mentioning a changed device, and
online-device snapshots within validity reach of the new rows (all
snapshots, when a device's δ estimate moved).  Because every cached
value is a pure function of table state, the answers are bitwise
identical to what a system rebuilt from scratch over the merged log
would produce — the equivalence suite in
``tests/integration/test_streaming_equivalence.py`` enforces this.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.events.event import ConnectivityEvent
from repro.system.ingestion import IngestionEngine, IngestReport
from repro.system.query import LocationQuery

if TYPE_CHECKING:
    from repro.system.locater import Locater, LocationAnswer


def prune_batch_state(state, report: IngestReport, summary,
                      registry) -> None:
    """Drop from a warm batch state everything one ingest staled.

    THE surgical-invalidation policy for warm states, run by
    ``Locater.on_ingest``: memos mentioning a changed device are
    dropped, and online-device snapshots within validity reach of the
    new rows are invalidated (all snapshots, when any device's δ
    estimate moved — a moved δ shifts that device's validity windows
    everywhere).

    Full invalidations reset the state instead; this handles the
    surgical case only.

    Args:
        state: A :class:`~repro.system.locater.BatchState`.
        report: The change that triggered the invalidation.
        summary: The :class:`~repro.system.locater.InvalidationSummary`
            the locater derived from it.
        registry: The table's device registry (for per-device δ slack).
    """
    if summary.macs:
        state.drop_devices(set(summary.macs))
    if summary.delta_changed:
        state.neighbors.invalidate_all()
    else:
        for mac, interval in report.changed.items():
            state.neighbors.invalidate_interval(
                interval, slack=registry.get(mac).delta)


class StreamingSession:
    """A long-running serve loop: ingest batches, answer query bursts.

    Args:
        locater: The cleaning system to serve (a lone ``Locater`` or a
            ``ShardedLocater``).
        engine: Optional ingestion engine; must wrap the locater's table.
            Defaults to a new storage-less engine over that table.

    The session holds no state of its own: the locater owns the warm
    state and pulls its freshness from the table at every query, so the
    engine needs no wiring to it.
    """

    def __init__(self, locater: Locater,
                 engine: "IngestionEngine | None" = None) -> None:
        if engine is None:
            engine = IngestionEngine(locater.table)
        elif engine.table is not locater.table:
            raise ConfigurationError(
                "ingestion engine and locater must share one event table")
        self._locater = locater
        self._engine = engine

    @property
    def locater(self) -> Locater:
        """The cleaning system served by this session."""
        return self._locater

    @property
    def engine(self) -> IngestionEngine:
        """The ingestion engine feeding the session."""
        return self._engine

    @property
    def full_invalidations(self) -> int:
        """Full invalidations the lone locater has run so far.

        Read from the ``Locater``, which counts them; a cluster reports
        its shards' counts through ``shard_stats()`` instead.
        """
        return self._locater.full_invalidations

    # ------------------------------------------------------------------
    def ingest(self, events: Iterable[ConnectivityEvent]) -> IngestReport:
        """Merge new events; the next query invalidates what they staled."""
        return self._engine.ingest(events)

    def query(self, queries: Sequence[LocationQuery]
              ) -> list[LocationAnswer]:
        """Answer a burst of queries against the current table."""
        return self._locater.locate_batch(queries)

    def locate(self, mac: str, timestamp: float) -> LocationAnswer:
        """Answer a single query (still sharing the locater's memos)."""
        return self.query([LocationQuery(mac=mac, timestamp=timestamp)])[0]

    def close(self) -> None:
        """Release nothing — the session holds no resource — but keep
        the serve loop's shape: a session still closes, and works as a
        context manager."""

    def __enter__(self) -> "StreamingSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
