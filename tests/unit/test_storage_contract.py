"""Parametrized contract suite every storage backend must satisfy.

Runs the same assertions against the in-memory backend, SQLite in
memory, SQLite on disk (with a true close-and-reopen between write and
read), and a namespaced view of each — so a new backend (or a change to
the namespace layer) is held to the identical contract the cluster and
ingestion layers rely on.
"""

from __future__ import annotations

import pytest

from repro.errors import StorageError
from repro.events.event import ConnectivityEvent
from repro.system.storage import (
    InMemoryStorage,
    NamespacedStorage,
    SqliteStorage,
    StorageEngine,
)


def test_namespace_returns_the_view_type():
    assert isinstance(InMemoryStorage().namespace("ns"), NamespacedStorage)


class Backend:
    """One parametrization: how to open, reopen, and describe a store."""

    def __init__(self, name: str, open_fn, reopenable: bool) -> None:
        self.name = name
        self.open = open_fn
        self.reopenable = reopenable


def _backends(tmp_path) -> list[Backend]:
    db = tmp_path / "contract.db"

    def sqlite_file() -> StorageEngine:
        return SqliteStorage(str(db))

    return [
        Backend("memory", InMemoryStorage, reopenable=False),
        Backend("sqlite", SqliteStorage, reopenable=False),
        Backend("sqlite-file", sqlite_file, reopenable=True),
        Backend("memory-namespaced",
                lambda: InMemoryStorage().namespace("ns"),
                reopenable=False),
        Backend("sqlite-namespaced",
                lambda: SqliteStorage().namespace("ns"),
                reopenable=False),
    ]


@pytest.fixture(params=["memory", "sqlite", "sqlite-file",
                        "memory-namespaced", "sqlite-namespaced"])
def backend(request, tmp_path):
    chosen = next(b for b in _backends(tmp_path)
                  if b.name == request.param)
    store = chosen.open()
    yield chosen, store
    try:
        store.close()
    except StorageError:
        pass


def _events(count: int, start_id: int = 0) -> list[ConnectivityEvent]:
    return [ConnectivityEvent(timestamp=100.0 + i, mac=f"d{i % 3}",
                              ap_id=f"wap{i % 2}", event_id=start_id + i)
            for i in range(count)]


class TestStorageContract:
    def test_answer_roundtrip(self, backend):
        _, store = backend
        store.store_answer("d1", 123.5, "2061")
        store.store_answer("d1", 125.0, "outside")
        store.store_answer("d2", 123.5, "2002")
        assert store.find_answer("d1", 123.5) == "2061"
        assert store.find_answer("d1", 125.0) == "outside"
        assert store.find_answer("d2", 123.5) == "2002"
        assert store.find_answer("d1", 999.0) is None
        # Last write wins on the (mac, timestamp) key.
        store.store_answer("d1", 123.5, "2065")
        assert store.find_answer("d1", 123.5) == "2065"

    def test_metadata_roundtrip(self, backend):
        _, store = backend
        doc = {"name": "fig1", "rooms": ["2061", "2065"],
               "nested": {"tau": 20.5}}
        store.store_metadata("building", doc)
        assert store.load_metadata("building") == doc
        assert store.load_metadata("missing") is None
        store.store_metadata("building", {"replaced": True})
        assert store.load_metadata("building") == {"replaced": True}

    def test_event_roundtrip_and_max_id(self, backend):
        _, store = backend
        assert store.max_event_id() == -1
        assert store.store_events(_events(5, start_id=10)) == 5
        assert store.event_count() == 5
        assert store.max_event_id() == 14
        loaded = list(store.load_events())
        assert [e.event_id for e in loaded] == list(range(10, 15))

    def test_max_event_id_survives_reopen(self, backend, tmp_path):
        chosen, store = backend
        store.store_events(_events(4, start_id=7))
        if not chosen.reopenable:
            # Non-persistent backends only promise in-session stability.
            assert store.max_event_id() == 10
            return
        store.close()
        reopened = chosen.open()
        try:
            assert reopened.max_event_id() == 10
            assert reopened.event_count() == 4
        finally:
            reopened.close()

    def test_clear_answers_counts_and_prefix_scope(self, backend):
        _, store = backend
        for i in range(4):
            store.store_answer(f"aa{i}", float(i), "room")
            store.store_answer(f"bb{i}", float(i), "room")
        assert store.clear_answers(mac_prefix="aa") == 4
        assert store.find_answer("aa0", 0.0) is None
        assert store.find_answer("bb0", 0.0) == "room"
        assert store.clear_answers() == 4
        assert store.find_answer("bb0", 0.0) is None
        assert store.clear_answers() == 0

    def test_clear_answers_prefix_is_literal_and_case_sensitive(
            self, backend):
        # A prefix matches exactly what str.startswith matches: no ASCII
        # case folding, and "%" and "_" are plain characters.
        _, store = backend
        store.store_answer("aa:01", 1.0, "room")
        store.store_answer("AA:02", 1.0, "room")
        assert store.clear_answers(mac_prefix="AA") == 1
        assert store.find_answer("aa:01", 1.0) == "room"
        assert store.find_answer("AA:02", 1.0) is None
        store.store_answer("50%_a", 1.0, "room")
        store.store_answer("50xya", 1.0, "room")
        store.store_answer("50%_b", 1.0, "room")
        assert store.clear_answers(mac_prefix="50%_") == 2
        assert store.find_answer("50xya", 1.0) == "room"
        assert store.find_answer("50%_a", 1.0) is None

    def test_closed_store_raises(self, backend):
        _, store = backend
        store.close()
        with pytest.raises(StorageError):
            store.store_answer("d1", 1.0, "room")
        with pytest.raises(StorageError):
            store.event_count()


class TestThreadSafety:
    """Backends serialize internally — shard pool threads share them."""

    @pytest.fixture(params=["memory", "sqlite"])
    def shared(self, request):
        store = InMemoryStorage() if request.param == "memory" \
            else SqliteStorage()
        yield store
        store.close()

    def test_concurrent_writes_and_namespace_clears(self, shared):
        import threading

        views = [shared.namespace(f"shard{i}") for i in range(4)]
        errors: list[BaseException] = []

        def hammer(view) -> None:
            try:
                for round_index in range(30):
                    for i in range(5):
                        view.store_answer(f"d{i}", float(round_index),
                                          "room")
                    view.clear_answers()  # iterates while siblings write
            except BaseException as exc:  # pragma: no cover - on failure
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(view,))
                   for view in views]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        # Every namespace cleared its own keys; nothing leaked across.
        for view in views:
            assert view.clear_answers() == 0


class TestNamespaceBehavior:
    """The namespace layer's own contract, over both backends."""

    @pytest.fixture(params=["memory", "sqlite"])
    def shared(self, request):
        store = InMemoryStorage() if request.param == "memory" \
            else SqliteStorage()
        yield store
        store.close()

    def test_views_do_not_collide(self, shared):
        a, b = shared.namespace("shard0"), shared.namespace("shard1")
        a.store_answer("d1", 5.0, "room-a")
        b.store_answer("d1", 5.0, "room-b")
        shared.store_answer("d1", 5.0, "room-root")
        assert a.find_answer("d1", 5.0) == "room-a"
        assert b.find_answer("d1", 5.0) == "room-b"
        assert shared.find_answer("d1", 5.0) == "room-root"
        a.store_metadata("config", {"shard": 0})
        b.store_metadata("config", {"shard": 1})
        assert a.load_metadata("config") == {"shard": 0}
        assert b.load_metadata("config") == {"shard": 1}

    def test_clear_answers_is_namespace_scoped(self, shared):
        a, b = shared.namespace("shard0"), shared.namespace("shard1")
        for i in range(3):
            a.store_answer(f"d{i}", 1.0, "x")
            b.store_answer(f"d{i}", 1.0, "y")
        assert a.clear_answers() == 3
        assert a.find_answer("d0", 1.0) is None
        assert b.find_answer("d0", 1.0) == "y"

    def test_events_and_ids_are_shared(self, shared):
        a, b = shared.namespace("shard0"), shared.namespace("shard1")
        a.store_events(_events(2, start_id=0))
        b.store_events(_events(2, start_id=2))
        assert shared.event_count() == 4
        assert a.event_count() == 4
        assert b.max_event_id() == 3

    def test_nested_namespaces_concatenate(self, shared):
        inner = shared.namespace("cluster").namespace("shard0")
        inner.store_answer("d1", 2.0, "room")
        assert shared.find_answer("cluster:shard0:d1", 2.0) == "room"
        assert inner.clear_answers() == 1

    def test_view_close_leaves_backend_open(self, shared):
        view = shared.namespace("shard0")
        view.close()
        with pytest.raises(StorageError):
            view.find_answer("d1", 1.0)
        shared.store_answer("d1", 1.0, "room")  # backend still usable
        assert shared.find_answer("d1", 1.0) == "room"

    def test_prefix_validation(self, shared):
        with pytest.raises(StorageError):
            shared.namespace("")
        with pytest.raises(StorageError):
            shared.namespace("a:b")
