"""Column storage backends: heap and shared-memory stores.

The contract under test is the one :class:`~repro.events.table.EventTable`
leans on (see :mod:`repro.events.columns`): ``put`` returns a handle whose
``arrays()`` resolves bitwise-equal no matter where the bytes currently
live — heap, or a shared-memory segment mapped in this or another
store — and release/close semantics differ by role (the owner unlinks,
an attached view only unmaps).
"""

from __future__ import annotations

import multiprocessing
import os
import re
import signal
import time

import numpy as np
import pytest

from repro.errors import EventTableError
from repro.events.columns import (
    APS_DTYPE,
    BYTES_PER_EVENT,
    TIMES_DTYPE,
    HeapColumnStore,
    SharedMemoryColumnStore,
    _ResidentColumns,
    purge_orphan_segments,
)
from repro.events.event import ConnectivityEvent
from repro.events.table import EventTable


def _shared_table():
    """An owner table on a shared store: two devices over three APs."""
    events = [ConnectivityEvent(float(t), mac, f"ap-{t % 3}")
              for t in range(40) for mac in ("d1", "d2")]
    return EventTable.from_events(events, store=SharedMemoryColumnStore())


def _columns(n=64, seed=0):
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0.0, 1e6, size=n)).astype(TIMES_DTYPE)
    aps = rng.integers(0, 17, size=n).astype(APS_DTYPE)
    return times, aps


class TestHeapStore:
    def test_roundtrip_bitwise(self):
        times, aps = _columns()
        with HeapColumnStore() as store:
            handle = store.put("d1", times, aps)
            got_t, got_a = handle.arrays()
            np.testing.assert_array_equal(got_t, times)
            np.testing.assert_array_equal(got_a, aps)
            assert handle.nbytes == times.size * BYTES_PER_EVENT
            assert handle.resident

    def test_misaligned_shapes_rejected(self):
        with HeapColumnStore() as store:
            with pytest.raises(EventTableError):
                store.put("d1", np.zeros(3), np.zeros(4, dtype=APS_DTYPE))

    def test_stats_count_every_column_byte_and_release_drops_arrays(self):
        with HeapColumnStore() as store:
            short = store.put("short", *_columns(n=10, seed=1))
            long = store.put("long", *_columns(n=30, seed=2))
            stats = store.stats()
            assert stats["kind"] == "heap"
            assert stats["segments"] == 2
            assert stats["column_bytes"] == 40 * BYTES_PER_EVENT
            store.release(long)
            assert not long.resident
            assert short.resident
            assert store.stats()["column_bytes"] == short.nbytes
            assert store.stats()["segments"] == 1

    def test_release_ignores_foreign_handles(self):
        times, aps = _columns(n=4)
        foreign = _ResidentColumns("x", times, aps)
        with HeapColumnStore() as store:
            store.release(foreign)  # no-op, no raise
            other = HeapColumnStore()
            handle = other.put("d1", times, aps)
            store.release(handle)
            assert handle.resident  # untouched by the wrong store
            other.close()


class TestSharedMemoryStore:
    def test_roundtrip_bitwise_and_readonly(self):
        times, aps = _columns(n=100, seed=5)
        with SharedMemoryColumnStore() as store:
            handle = store.put("d1", times, aps)
            got_t, got_a = handle.arrays()
            assert got_t.tobytes() == times.tobytes()
            assert got_a.tobytes() == aps.tobytes()
            # Readers must never mutate the one physical copy.
            assert not got_t.flags.writeable
            assert not got_a.flags.writeable
            with pytest.raises(ValueError):
                got_t[0] = 0.0

    def test_empty_log_allowed(self):
        with SharedMemoryColumnStore() as store:
            handle = store.put("d1", np.empty(0, dtype=TIMES_DTYPE),
                               np.empty(0, dtype=APS_DTYPE))
            got_t, got_a = handle.arrays()
            assert got_t.size == 0 and got_a.size == 0
            assert handle.nbytes == 0

    def test_adopt_resolves_same_bytes(self):
        owner = _shared_table()
        try:
            handle = owner.log("d1").columns
            times, aps = handle.arrays()
            view = EventTable.attach(owner.describe())
            adopted = view.log("d1").columns
            assert adopted.segment_name == handle.segment_name
            assert not adopted.resident  # lazy until first arrays()
            got_t, got_a = adopted.arrays()
            assert got_t.tobytes() == times.tobytes()
            assert got_a.tobytes() == aps.tobytes()
            assert view.store.stats()["kind"] == "shared-attached"
            # Attached close unmaps but must not unlink: the owner's
            # views keep reading the same bytes afterwards, and the
            # name still resolves.
            view.close()
            still_t, _ = handle.arrays()
            assert still_t.tobytes() == times.tobytes()
            from multiprocessing import shared_memory
            shared_memory.SharedMemory(name=handle.segment_name).close()
        finally:
            owner.close()

    def test_attached_store_rejects_put(self):
        # A view's store is a different type from the owner's: it has no
        # put at all, and the view refuses rows before they reach it.
        owner = _shared_table()
        try:
            view = EventTable.attach(owner.describe())
            assert view.store.is_attached
            assert not hasattr(view.store, "put")
            assert hasattr(owner.store, "put")
            with pytest.raises(EventTableError):
                view.append(ConnectivityEvent(5.0, "d1", "ap-0"))
            view.close()
        finally:
            owner.close()

    def test_only_owner_teardown_unlinks(self, monkeypatch):
        # Attached views, closed before or after their owner, never
        # unlink; the owner's close unlinks each of its segments once.
        from multiprocessing import shared_memory
        unlinked = []
        unlink = shared_memory.SharedMemory.unlink

        def recording_unlink(segment):
            unlinked.append(segment.name.lstrip("/"))
            unlink(segment)

        monkeypatch.setattr(shared_memory.SharedMemory, "unlink",
                            recording_unlink)
        owner = _shared_table()
        names = sorted(owner.log(mac).columns.segment_name
                       for mac in ("d1", "d2"))
        early, late = (EventTable.attach(owner.describe())
                       for _ in range(2))
        for view in (early, late):
            for mac in ("d1", "d2"):
                view.log(mac).columns.arrays()  # map every segment
        early.close()
        assert unlinked == []
        owner.close()
        assert sorted(unlinked) == names
        late.close()
        assert sorted(unlinked) == names
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_owner_release_unlinks_segment(self):
        times, aps = _columns(n=12)
        with SharedMemoryColumnStore() as owner:
            handle = owner.put("d1", times, aps)
            name = handle.segment_name
            owner.release(handle)
            # The segment name is retired: a fresh attach must fail.
            from multiprocessing import shared_memory
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_live_views_survive_owner_close(self):
        # Mapped pages outlive the unlink via refcounting: data already
        # handed to a computation stays valid after the store dies.
        times, aps = _columns(n=40, seed=9)
        store = SharedMemoryColumnStore()
        handle = store.put("d1", times, aps)
        view = handle.arrays()[0]
        store.close()
        assert view.tobytes() == times.tobytes()

    def test_segment_names_unique_within_store(self):
        with SharedMemoryColumnStore() as store:
            names = {store.put(f"d{i}", *_columns(n=4, seed=i)).segment_name
                     for i in range(5)}
            assert len(names) == 5


class TestOrphanPurge:
    """Crash-safety sweep: dead owners' segments are reclaimable."""

    def test_owner_prefix_embeds_the_full_pid(self):
        with SharedMemoryColumnStore() as store:
            assert re.fullmatch(
                rf"loc-{os.getpid()}-[0-9a-f]{{6}}", store._prefix)

    def test_live_owner_segments_are_never_touched(self):
        times, aps = _columns(n=8)
        with SharedMemoryColumnStore() as store:
            handle = store.put("d1", times, aps)
            assert purge_orphan_segments() == []
            got_t, _ = handle.arrays()
            assert got_t.tobytes() == times.tobytes()

    def test_dead_owner_segment_is_reclaimed(self):
        def owner_main(conn) -> None:
            store = SharedMemoryColumnStore()
            store.put("d1", *_columns(n=8))
            conn.send(store._prefix)
            time.sleep(60)  # hold the segment until SIGKILLed

        recv_end, send_end = multiprocessing.Pipe(duplex=False)
        owner = multiprocessing.Process(target=owner_main, args=(send_end,))
        owner.start()
        prefix = recv_end.recv()
        os.kill(owner.pid, signal.SIGKILL)
        owner.join(timeout=10.0)
        orphans = [name for name in os.listdir("/dev/shm")
                   if name.startswith(prefix)]
        assert len(orphans) == 1, "the hard kill should orphan the segment"
        reclaimed = purge_orphan_segments()
        assert orphans[0] in reclaimed
        assert not any(name.startswith(prefix)
                       for name in os.listdir("/dev/shm"))
        # Idempotent: a second sweep finds nothing.
        assert purge_orphan_segments() == []

    def test_purge_matches_only_owner_minted_names(self, tmp_path):
        dead = multiprocessing.Process(target=lambda: None)
        dead.start()
        dead.join()
        (tmp_path / "unrelated-file").write_bytes(b"x")
        (tmp_path / f"loc-{os.getpid()}-abcdef-000001").write_bytes(b"x")
        (tmp_path / f"loc-{dead.pid}-abcdef-000001").write_bytes(b"x")
        reclaimed = purge_orphan_segments(shm_dir=str(tmp_path))
        assert reclaimed == [f"loc-{dead.pid}-abcdef-000001"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"loc-{os.getpid()}-abcdef-000001", "unrelated-file"]

    def test_purge_tolerates_a_missing_directory(self):
        assert purge_orphan_segments(shm_dir="/no/such/dir") == []
