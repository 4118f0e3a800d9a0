"""Storage engine (paper Fig. 5): dirty data, clean data, metadata.

Two interchangeable backends implement the same interface: an in-memory
store for tests and benchmarks, and a SQLite store (stdlib ``sqlite3``)
showing how a deployment persists raw events, cleaned answers and space
metadata.  All SQL uses parameterized statements.

Backends can be shared by several independent consumers — the shards of
a :class:`~repro.cluster.ShardedLocater` — through *namespaces*:
:meth:`StorageEngine.namespace` returns a :class:`NamespacedStorage`
view that prefixes answer and metadata keys so views never collide,
while raw events (whose ids are globally unique already) remain shared.
Both backends serialize every operation behind an internal lock (and
SQLite connects with ``check_same_thread=False``), so namespace views
may be driven from different threads — e.g. a cluster's thread-pool
shards persisting answers concurrently — without corrupting shared
state.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from abc import ABC, abstractmethod
from collections.abc import Iterable, Iterator

from repro.errors import StorageError
from repro.events.event import ConnectivityEvent


class StorageEngine(ABC):
    """Interface shared by storage backends.

    "Dirty" rows are raw connectivity events as ingested; "clean" rows are
    answered queries (device, time, location) kept for reuse and audit.
    """

    # -- dirty (raw) events --------------------------------------------
    @abstractmethod
    def store_events(self, events: Iterable[ConnectivityEvent]) -> int:
        """Persist raw events; returns the number stored."""

    @abstractmethod
    def load_events(self) -> Iterator[ConnectivityEvent]:
        """Iterate all stored raw events in timestamp order."""

    @abstractmethod
    def event_count(self) -> int:
        """Number of raw events stored."""

    @abstractmethod
    def max_event_id(self) -> int:
        """Largest event id stored, or −1 when no row carries one.

        Ingestion engines seed their id counters from this (and the
        table's maximum) so restarts over a pre-populated store never
        reissue colliding ids.
        """

    # -- clean (answered) locations ------------------------------------
    @abstractmethod
    def store_answer(self, mac: str, timestamp: float, location: str) -> None:
        """Persist one cleaned localization answer."""

    @abstractmethod
    def find_answer(self, mac: str, timestamp: float) -> "str | None":
        """Exact-match lookup of a previously cleaned answer."""

    @abstractmethod
    def clear_answers(self, mac_prefix: "str | None" = None) -> int:
        """Drop cleaned answers; returns how many were dropped.

        Cleaned answers are a memo of the cleaning pipeline's output over
        the *current* event table.  New events can change any answer —
        even of devices that emitted nothing, because cleaning couples
        devices through co-location — so ingestion invalidates the whole
        store rather than guessing a safe subset.

        Args:
            mac_prefix: When given, only answers whose mac starts with
                this prefix are dropped — the primitive behind
                namespace-scoped invalidation (a shard clearing its own
                answers must not clear its siblings').
        """

    # -- metadata -------------------------------------------------------
    @abstractmethod
    def store_metadata(self, key: str, value: dict) -> None:
        """Persist one metadata document under ``key``."""

    @abstractmethod
    def load_metadata(self, key: str) -> "dict | None":
        """Load a metadata document, or None."""

    @abstractmethod
    def close(self) -> None:
        """Release resources; further use raises :class:`StorageError`."""

    def namespace(self, prefix: str) -> "NamespacedStorage":
        """A view of this backend whose answers/metadata live under ``prefix``.

        Views share the backend's raw-event store (event ids are globally
        unique, so there is nothing to isolate) but mangle answer macs and
        metadata keys to ``"<prefix>:<key>"``, letting many independent
        consumers — e.g. the shards of a cluster — share one backend
        without key collisions.  Closing a view does not close the
        backend.
        """
        return NamespacedStorage(self, prefix)

    def __enter__(self) -> "StorageEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class NamespacedStorage(StorageEngine):
    """A prefix-scoped view over a shared backend (see ``namespace``).

    Answer macs and metadata keys are stored as ``"<prefix>:<key>"``;
    :meth:`clear_answers` drops only this namespace's answers.  Event
    operations delegate untouched.  Nesting namespaces concatenates the
    prefixes (``a`` then ``b`` → ``"a:b:<key>"``).
    """

    def __init__(self, inner: StorageEngine, prefix: str) -> None:
        if not prefix or ":" in prefix:
            raise StorageError(
                f"namespace prefix must be non-empty and ':'-free, "
                f"got {prefix!r}")
        self._inner = inner
        self._prefix = prefix
        self._closed = False

    @property
    def prefix(self) -> str:
        """The namespace prefix of this view."""
        return self._prefix

    @property
    def backend(self) -> StorageEngine:
        """The shared backend this view writes through to."""
        return self._inner

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError("storage namespace view already closed")

    def _key(self, key: str) -> str:
        return f"{self._prefix}:{key}"

    # -- events: shared with the backend, ids already globally unique --
    def store_events(self, events: Iterable[ConnectivityEvent]) -> int:
        self._check_open()
        return self._inner.store_events(events)

    def load_events(self) -> Iterator[ConnectivityEvent]:
        self._check_open()
        return self._inner.load_events()

    def event_count(self) -> int:
        self._check_open()
        return self._inner.event_count()

    def max_event_id(self) -> int:
        self._check_open()
        return self._inner.max_event_id()

    # -- answers and metadata: prefix-scoped ---------------------------
    def store_answer(self, mac: str, timestamp: float, location: str) -> None:
        self._check_open()
        self._inner.store_answer(self._key(mac), timestamp, location)

    def find_answer(self, mac: str, timestamp: float) -> "str | None":
        self._check_open()
        return self._inner.find_answer(self._key(mac), timestamp)

    def clear_answers(self, mac_prefix: "str | None" = None) -> int:
        self._check_open()
        scoped = self._key(mac_prefix) if mac_prefix else f"{self._prefix}:"
        return self._inner.clear_answers(mac_prefix=scoped)

    def store_metadata(self, key: str, value: dict) -> None:
        self._check_open()
        self._inner.store_metadata(self._key(key), value)

    def load_metadata(self, key: str) -> "dict | None":
        self._check_open()
        return self._inner.load_metadata(self._key(key))

    def close(self) -> None:
        # Only the view closes; the shared backend stays usable for the
        # other namespaces (and for whoever owns its lifecycle).
        self._closed = True


class InMemoryStorage(StorageEngine):
    """Dictionary-backed storage for tests and benchmarks.

    Thread-safe: every operation holds one internal lock, so concurrent
    shard threads sharing this backend (directly or through namespace
    views) never observe a dict mid-mutation.
    """

    def __init__(self) -> None:
        self._events: list[ConnectivityEvent] = []
        self._answers: dict[tuple[str, float], str] = {}
        self._metadata: dict[str, dict] = {}
        self._closed = False
        self._lock = threading.RLock()

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError("storage engine already closed")

    def store_events(self, events: Iterable[ConnectivityEvent]) -> int:
        with self._lock:
            self._check_open()
            count = 0
            for event in events:
                self._events.append(event)
                count += 1
            return count

    def load_events(self) -> Iterator[ConnectivityEvent]:
        with self._lock:
            self._check_open()
            return iter(sorted(self._events))

    def event_count(self) -> int:
        with self._lock:
            self._check_open()
            return len(self._events)

    def max_event_id(self) -> int:
        with self._lock:
            self._check_open()
            return max((e.event_id for e in self._events), default=-1)

    def store_answer(self, mac: str, timestamp: float, location: str) -> None:
        with self._lock:
            self._check_open()
            self._answers[(mac, timestamp)] = location

    def find_answer(self, mac: str, timestamp: float) -> "str | None":
        with self._lock:
            self._check_open()
            return self._answers.get((mac, timestamp))

    def clear_answers(self, mac_prefix: "str | None" = None) -> int:
        with self._lock:
            self._check_open()
            if mac_prefix is None:
                dropped = len(self._answers)
                self._answers.clear()
                return dropped
            doomed = [key for key in self._answers
                      if key[0].startswith(mac_prefix)]
            for key in doomed:
                del self._answers[key]
            return len(doomed)

    def store_metadata(self, key: str, value: dict) -> None:
        with self._lock:
            self._check_open()
            # Round-trip through JSON so both backends accept the same
            # values.
            self._metadata[key] = json.loads(json.dumps(value))

    def load_metadata(self, key: str) -> "dict | None":
        with self._lock:
            self._check_open()
            return self._metadata.get(key)

    def close(self) -> None:
        with self._lock:
            self._closed = True


class SqliteStorage(StorageEngine):
    """SQLite-backed storage engine.

    Args:
        path: Database file path, or ``":memory:"`` (default) for an
            ephemeral database.

    Thread-safe: one shared connection opened with
    ``check_same_thread=False``, every operation serialized behind an
    internal lock (SQLite's own serialized mode would also do, but the
    stdlib does not guarantee it is compiled in).
    """

    _SCHEMA = """
    CREATE TABLE IF NOT EXISTS dirty_events (
        event_id  INTEGER PRIMARY KEY AUTOINCREMENT,
        mac       TEXT    NOT NULL,
        timestamp REAL    NOT NULL,
        ap_id     TEXT    NOT NULL
    );
    CREATE INDEX IF NOT EXISTS idx_dirty_mac_time
        ON dirty_events (mac, timestamp);
    CREATE TABLE IF NOT EXISTS clean_answers (
        mac       TEXT NOT NULL,
        timestamp REAL NOT NULL,
        location  TEXT NOT NULL,
        PRIMARY KEY (mac, timestamp)
    );
    CREATE TABLE IF NOT EXISTS metadata (
        key   TEXT PRIMARY KEY,
        value TEXT NOT NULL
    );
    """

    def __init__(self, path: str = ":memory:") -> None:
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._conn.executescript(self._SCHEMA)
        self._conn.commit()
        self._closed = False
        self._lock = threading.RLock()

    def _check_open(self) -> None:
        if self._closed:
            raise StorageError("storage engine already closed")

    def store_events(self, events: Iterable[ConnectivityEvent]) -> int:
        with self._lock:
            self._check_open()
            # Persist stamped ids verbatim (NULL lets SQLite autoassign
            # for unstamped rows), so replaying from this backend
            # reproduces the ids the ingestion engine issued, exactly
            # like the in-memory one.
            rows = [(e.event_id if e.event_id >= 0 else None,
                     e.mac, e.timestamp, e.ap_id) for e in events]
            with self._conn:
                self._conn.executemany(
                    "INSERT INTO dirty_events "
                    "(event_id, mac, timestamp, ap_id) "
                    "VALUES (?, ?, ?, ?)", rows)
            return len(rows)

    def load_events(self) -> Iterator[ConnectivityEvent]:
        with self._lock:
            self._check_open()
            # event_id breaks timestamp/mac/ap ties so replay order
            # matches InMemoryStorage, which sorts full
            # ConnectivityEvent tuples (timestamp, mac, ap_id,
            # event_id).  Fetched eagerly: a lazily-consumed cursor
            # would read the connection outside the lock.
            rows = self._conn.execute(
                "SELECT event_id, mac, timestamp, ap_id FROM dirty_events "
                "ORDER BY timestamp, mac, ap_id, event_id").fetchall()
        return iter([ConnectivityEvent(timestamp=timestamp, mac=mac,
                                       ap_id=ap_id, event_id=event_id)
                     for event_id, mac, timestamp, ap_id in rows])

    def event_count(self) -> int:
        with self._lock:
            self._check_open()
            row = self._conn.execute(
                "SELECT COUNT(*) FROM dirty_events").fetchone()
            return int(row[0])

    def max_event_id(self) -> int:
        with self._lock:
            self._check_open()
            row = self._conn.execute(
                "SELECT COALESCE(MAX(event_id), -1) FROM dirty_events"
            ).fetchone()
            return int(row[0])

    def store_answer(self, mac: str, timestamp: float, location: str) -> None:
        with self._lock:
            self._check_open()
            with self._conn:
                self._conn.execute(
                    "INSERT OR REPLACE INTO clean_answers "
                    "(mac, timestamp, location) VALUES (?, ?, ?)",
                    (mac, timestamp, location))

    def find_answer(self, mac: str, timestamp: float) -> "str | None":
        with self._lock:
            self._check_open()
            row = self._conn.execute(
                "SELECT location FROM clean_answers "
                "WHERE mac = ? AND timestamp = ?",
                (mac, timestamp)).fetchone()
            return None if row is None else str(row[0])

    def clear_answers(self, mac_prefix: "str | None" = None) -> int:
        with self._lock:
            self._check_open()
            with self._conn:
                if mac_prefix is None:
                    cursor = self._conn.execute(
                        "DELETE FROM clean_answers")
                else:
                    # An exact, case-sensitive prefix match (LIKE would
                    # ignore ASCII case and need its wildcards escaped).
                    cursor = self._conn.execute(
                        "DELETE FROM clean_answers "
                        "WHERE substr(mac, 1, ?) = ?",
                        (len(mac_prefix), mac_prefix))
            return int(cursor.rowcount)

    def store_metadata(self, key: str, value: dict) -> None:
        with self._lock:
            self._check_open()
            with self._conn:
                self._conn.execute(
                    "INSERT OR REPLACE INTO metadata (key, value) "
                    "VALUES (?, ?)", (key, json.dumps(value,
                                                      sort_keys=True)))

    def load_metadata(self, key: str) -> "dict | None":
        with self._lock:
            self._check_open()
            row = self._conn.execute(
                "SELECT value FROM metadata WHERE key = ?",
                (key,)).fetchone()
            return None if row is None else json.loads(row[0])

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._conn.close()
                self._closed = True
