"""The connectivity events table E with per-device numpy-backed logs.

The table stores events per device as parallel sorted arrays (timestamps
and AP indices), which makes the hot operations of the localizers —
"which event is valid at t?", "events in [a, b)", "co-occurrence scans" —
binary searches instead of linear passes.  This mirrors how a production
system would index the association log by device and time.

Where the column bytes live is delegated to a
:class:`~repro.events.columns.ColumnStore`: heap arrays by default, or
named shared-memory segments (:class:`SharedMemoryColumnStore`) so that
shard worker processes attach to one physical copy of the log instead
of each holding its own.  Two picklable payloads cross process
boundaries:

* :meth:`EventTable.describe` → :class:`TableDescriptor`: the full
  table state by segment *name* — :meth:`EventTable.attach` rebuilds a
  read-only view in any process that can map the segments.
* :meth:`EventTable.sync_payload` → :class:`TableSync`: the delta since
  a generation — :meth:`EventTable.apply_sync` advances an attached
  view to the owner's exact state (logs, registry deltas and each
  device's last-change generation replicated verbatim, so the
  generation-keyed change feed answers identically on every view).

For reads that touch every device at one time (neighbor snapshots),
:meth:`EventTable.flat_logs` concatenates the non-empty logs into one
:class:`FlatLogs` per :attr:`~EventTable.generation`, built lazily on
the first read after a freeze (or sync) moves it.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import EmptyHistoryError, EventTableError, UnknownDeviceError
from repro.events.columns import (
    ColumnHandle,
    ColumnStore,
    HeapColumnStore,
    _AttachedColumnStore,
    _ResidentColumns,
)
from repro.events.device import Device, DeviceRegistry
from repro.events.event import ConnectivityEvent
from repro.util.timeutil import TimeInterval


class DeviceLog:
    """Chronologically sorted events of one device.

    Internally two parallel numpy arrays: ``times`` (float64 seconds) and
    ``ap_indices`` (int32 indices into the table's AP vocabulary),
    resolved through a :class:`~repro.events.columns.ColumnHandle` — so
    the same log object serves heap arrays and attached shared-memory
    segments transparently.
    """

    def __init__(self, device: Device, times: "np.ndarray | None" = None,
                 ap_indices: "np.ndarray | None" = None,
                 ap_vocab: Sequence[str] = (),
                 columns: "ColumnHandle | None" = None) -> None:
        if columns is None:
            if times is None or ap_indices is None:
                raise EventTableError(
                    "DeviceLog needs either arrays or a column handle")
            if times.shape != ap_indices.shape:
                raise EventTableError("times and ap_indices must align")
            columns = _ResidentColumns(device.mac, times, ap_indices)
        self.device = device
        self._columns = columns
        self._ap_vocab = ap_vocab

    @property
    def columns(self) -> ColumnHandle:
        """The storage handle behind this log's arrays."""
        return self._columns

    @property
    def times(self) -> np.ndarray:
        """Sorted event timestamps (float64 seconds)."""
        return self._columns.arrays()[0]

    @property
    def ap_indices(self) -> np.ndarray:
        """AP vocabulary indices aligned with :attr:`times` (int32)."""
        return self._columns.arrays()[1]

    def __len__(self) -> int:
        return self._columns.length

    @property
    def is_empty(self) -> bool:
        return self._columns.length == 0

    @property
    def ap_vocab(self) -> Sequence[str]:
        """The table-wide AP vocabulary this log's indices point into."""
        return self._ap_vocab

    def ap_at(self, position: int) -> str:
        """AP id of the event at array position ``position``."""
        return self._ap_vocab[int(self.ap_indices[position])]

    def resolve_ap(self, ap_index: int) -> str:
        """AP id for a raw vocabulary index (as returned by slices)."""
        return self._ap_vocab[int(ap_index)]

    def time_at(self, position: int) -> float:
        """Timestamp of the event at array position ``position``."""
        return float(self.times[position])

    def slice_interval(self, interval: TimeInterval) -> "tuple[np.ndarray, np.ndarray]":
        """Return ``(times, ap_indices)`` of events with t in [start, end)."""
        times, aps = self._columns.arrays()
        lo = int(np.searchsorted(times, interval.start, side="left"))
        hi = int(np.searchsorted(times, interval.end, side="left"))
        return times[lo:hi], aps[lo:hi]

    def count_in(self, interval: TimeInterval) -> int:
        """Number of events with timestamp in [start, end)."""
        times = self.times
        lo = int(np.searchsorted(times, interval.start, side="left"))
        hi = int(np.searchsorted(times, interval.end, side="left"))
        return hi - lo

    def count_in_windows(self, starts: np.ndarray,
                         ends: np.ndarray) -> np.ndarray:
        """Event counts for many half-open windows ``[starts, ends)`` at once.

        ``starts`` and ``ends`` may be any (matching) shape; the result has
        the same shape.  Each entry equals ``count_in`` on that window, but
        the whole batch costs two vectorized binary searches — the hot path
        of the coarse density feature, which counts every gap's time-of-day
        window on every history day in one call.
        """
        lo, hi = self.window_bounds(starts, ends)
        return hi - lo

    def window_bounds(self, starts: np.ndarray,
                      ends: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """(lo, hi) array positions of events inside many windows at once.

        Positions satisfy ``times[lo:hi]`` in ``[start, end)`` per window,
        exactly as :meth:`slice_interval` would return them one by one.
        """
        times = self.times
        lo = np.searchsorted(times, starts, side="left")
        hi = np.searchsorted(times, ends, side="left")
        return lo, hi

    def nearest_before(self, timestamp: float) -> "int | None":
        """Position of the latest event with t <= timestamp, or None."""
        pos = int(np.searchsorted(self.times, timestamp, side="right")) - 1
        return pos if pos >= 0 else None

    def nearest_after(self, timestamp: float) -> "int | None":
        """Position of the earliest event with t >= timestamp, or None."""
        pos = int(np.searchsorted(self.times, timestamp, side="left"))
        return pos if pos < self._columns.length else None

    def events(self) -> Iterator[ConnectivityEvent]:
        """Materialize the log as :class:`ConnectivityEvent` records."""
        for i in range(len(self)):
            yield ConnectivityEvent(timestamp=self.time_at(i),
                                    mac=self.device.mac, ap_id=self.ap_at(i))


@dataclass(frozen=True, slots=True, eq=False)
class FlatLogs:
    """Every non-empty log of one table generation, concatenated.

    Row ``k`` is the ``k``-th device in sorted-MAC order (the order
    neighbor snapshots list devices in); its events occupy positions
    ``offsets[k]:offsets[k + 1]`` of :attr:`keys` and :attr:`ap_codes`.
    The key of an event of row ``k`` at time ``t`` is the complex number
    ``k + t·i``.  numpy orders complex numbers lexicographically, real
    part first, so the keys are sorted as a whole, and one
    ``np.searchsorted`` with one probe per row finds every device's
    position at a time: the vectorized :meth:`DeviceLog.nearest_before`.
    Rows and timestamps are finite floats (see
    :class:`ConnectivityEvent`), so every comparison is exact.

    ``devices`` are the registry's live :class:`Device` objects: readers
    take δ from them at call time, because δ estimates change without a
    new generation.  ``ap_codes`` index the table's append-only AP
    vocabulary ``ap_vocab``.  Costs 20 bytes per event (16 key, 4 AP
    code) plus 8 per device.
    """

    generation: int
    macs: tuple[str, ...]
    devices: tuple[Device, ...]
    offsets: np.ndarray
    keys: np.ndarray
    ap_codes: np.ndarray
    ap_vocab: Sequence[str]

    @property
    def times(self) -> np.ndarray:
        """Event timestamps aligned with :attr:`keys` (a view, no copy)."""
        return self.keys.imag


@dataclass(frozen=True, slots=True)
class DeviceState:
    """Picklable snapshot of one device's log for cross-process sync.

    ``segment``/``length`` name the shared-memory segment holding the
    log's columns (``None`` for a registered device with no merged
    events); ``generation`` is the generation at which the log last
    changed — all that ``changed_since`` reads — so the change feed
    answers identically on every view.
    """

    mac: str
    index: int
    delta: float
    segment: "str | None"
    length: int
    generation: int


@dataclass(frozen=True, slots=True)
class TableDescriptor:
    """Everything needed to attach a read-only table view by name."""

    ap_vocab: tuple[str, ...]
    devices: tuple[DeviceState, ...]
    generation: int
    event_count: int
    max_event_id: int


@dataclass(frozen=True, slots=True)
class TableSync:
    """The owner-side delta between two table generations.

    Applied by :meth:`EventTable.apply_sync` on an attached view;
    ``generation_before`` guards against divergence (a view may only
    apply the sync whose base generation it is exactly at).
    """

    generation_before: int
    generation: int
    event_count: int
    max_event_id: int
    ap_vocab: tuple[str, ...]
    devices: tuple[DeviceState, ...]


class EventTable:
    """The events table E, indexed by device and time.

    Build either incrementally with :meth:`append` + :meth:`freeze`, or in
    one shot with :meth:`from_events`.  Appends after freezing re-open the
    table; reads on a dirty (unfrozen) table freeze it lazily.

    The table is built for *online* growth: each :meth:`freeze` merges the
    pending rows of a device into its already-sorted log with binary
    searches (O(new·log new + old) per changed device, no re-sort of the
    full log) and advances a generation counter.  Consumers that cache
    work derived from the table — trained models, aggregates, snapshots —
    poll :meth:`changed_since` with the last generation they observed to
    learn exactly which devices changed.

    Args:
        store: Column storage backend; defaults to a private
            :class:`~repro.events.columns.HeapColumnStore`.  Pass a
            :class:`~repro.events.columns.SharedMemoryColumnStore` (or
            call :meth:`migrate_store` later) to publish the hot columns
            as named segments other processes attach to.  The table owns
            the store from here: :meth:`close` tears it down.
    """

    def __init__(self, store: "ColumnStore | None" = None) -> None:
        self.registry = DeviceRegistry()
        self._store = store if store is not None else HeapColumnStore()
        self._ap_vocab: list[str] = []
        self._ap_index: dict[str, int] = {}
        self._pending: dict[str, list[tuple[float, int]]] = {}
        self._logs: dict[str, DeviceLog] = {}
        self._dirty = False
        self._event_count = 0
        self._max_event_id = -1
        self._generation = 0
        # Generation at which each device's log last changed: the
        # change feed (changed_since).
        self._device_generation: dict[str, int] = {}
        # The concatenated logs of the current generation (flat_logs).
        self._flat: "FlatLogs | None" = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_events(cls, events: Iterable[ConnectivityEvent],
                    store: "ColumnStore | None" = None) -> "EventTable":
        """Build a frozen table from an iterable of events."""
        table = cls(store=store)
        for event in events:
            table.append(event)
        table.freeze()
        return table

    def append(self, event: ConnectivityEvent) -> None:
        """Ingest one event (any order; sorting happens at freeze)."""
        if self._store.is_attached:
            raise EventTableError(
                "attached table views are read-only; the owner merges "
                "and publishes deltas via sync_payload/apply_sync")
        self.registry.intern(event.mac)
        ap_idx = self._ap_index.get(event.ap_id)
        if ap_idx is None:
            ap_idx = len(self._ap_vocab)
            self._ap_vocab.append(event.ap_id)
            self._ap_index[event.ap_id] = ap_idx
        self._pending.setdefault(event.mac, []).append((event.timestamp, ap_idx))
        self._event_count += 1
        if event.event_id > self._max_event_id:
            self._max_event_id = event.event_id
        self._dirty = True

    def extend(self, events: Iterable[ConnectivityEvent]) -> None:
        """Ingest many events."""
        for event in events:
            self.append(event)

    def freeze(self) -> None:
        """Merge pending events into the per-device numpy logs.

        Incremental by construction: only devices with pending rows are
        touched, the pending rows are stable-sorted among themselves and
        merged into the (already sorted) existing log via
        ``np.searchsorted`` + ``np.insert`` — no concatenate-and-resort
        of the full log.  The result is bitwise identical to a stable
        argsort over ``old + new``: ``side="right"`` places timestamp
        ties after the existing rows, and equal insertion positions keep
        the pending rows' relative order.

        Every freeze that merges rows advances :attr:`generation` and
        stamps it on each merged device (the change feed read by
        :meth:`changed_since`).
        """
        if not self._dirty:
            return
        self._generation += 1
        for mac, rows in self._pending.items():
            old = self._logs.get(mac)
            times = np.array([t for t, _ in rows], dtype=np.float64)
            aps = np.array([a for _, a in rows], dtype=np.int32)
            if times.size > 1:
                order = np.argsort(times, kind="stable")
                times, aps = times[order], aps[order]
            if old is not None and len(old):
                positions = np.searchsorted(old.times, times, side="right")
                merged_times = np.insert(old.times, positions, times)
                merged_aps = np.insert(old.ap_indices, positions, aps)
            else:
                merged_times, merged_aps = times, aps
            device = self.registry.get(mac)
            self._set_log(mac, device, merged_times, merged_aps,
                          replaced=old)
            self._device_generation[mac] = self._generation
        self._pending.clear()
        self._dirty = False

    def _set_log(self, mac: str, device: Device, times: np.ndarray,
                 aps: np.ndarray, replaced: "DeviceLog | None") -> None:
        """Install one device's merged columns through the store."""
        handle = self._store.put(mac, times, aps)
        self._logs[mac] = DeviceLog(device, ap_vocab=self._ap_vocab,
                                    columns=handle)
        if replaced is not None:
            self._store.release(replaced.columns)

    # ------------------------------------------------------------------
    # Column storage / memory
    # ------------------------------------------------------------------
    @property
    def store(self) -> ColumnStore:
        """The column storage backend behind the per-device logs."""
        return self._store

    def migrate_store(self, store: ColumnStore) -> None:
        """Move every log's columns into ``store`` (in place).

        One copy per log at migration time; afterwards the old store is
        closed and new freezes publish into the new backend.  A process
        cluster lifts a heap table into shared memory this way for its
        attached workers, and moves it back to the heap when it closes.
        Columns leaving a shared store are copied, so no heap log pins
        a segment the old store unlinks.
        """
        self._ensure_frozen()
        copy = self._store.is_shared and not store.is_shared
        for mac, log in list(self._logs.items()):
            if log.is_empty:
                continue
            times, aps = log.columns.arrays()
            if copy:
                times, aps = times.copy(), aps.copy()
            handle = store.put(mac, times, aps)
            self._logs[mac] = DeviceLog(log.device,
                                        ap_vocab=self._ap_vocab,
                                        columns=handle)
        old = self._store
        self._store = store
        old.close()

    def close(self) -> None:
        """Release the column store (arrays, shared segments).  Terminal:
        log reads after close are undefined.  Idempotent."""
        self._store.close()

    def column_bytes(self) -> int:
        """Total logical bytes of the hot columns across all logs."""
        self._ensure_frozen()
        return sum(log.columns.nbytes for log in self._logs.values())

    def memory_stats(self) -> dict:
        """Store accounting plus table-level sizes (for benchmarks)."""
        self._ensure_frozen()
        out = self._store.stats()
        out["devices"] = len(self.registry)
        out["events"] = self._event_count
        return out

    # ------------------------------------------------------------------
    # Cross-process views (shared-memory stores)
    # ------------------------------------------------------------------
    def describe(self) -> TableDescriptor:
        """Picklable snapshot naming every log's shared segment.

        Requires a shared-memory store (heap arrays have no name to
        attach to).  Devices appear in registry order so an attaching
        process reproduces identical dense device indices.
        """
        self._ensure_frozen()
        if not self._store.is_shared:
            raise EventTableError(
                "describe() needs a shared-memory column store; call "
                "migrate_store(SharedMemoryColumnStore()) first")
        return TableDescriptor(
            ap_vocab=tuple(self._ap_vocab),
            devices=tuple(self._device_state(device)
                          for device in self.registry),
            generation=self._generation,
            event_count=self._event_count,
            max_event_id=self._max_event_id)

    def _device_state(self, device: Device) -> DeviceState:
        log = self._logs.get(device.mac)
        segment = None
        length = 0
        if log is not None and not log.is_empty:
            segment = log.columns.segment_name
            length = len(log)
        return DeviceState(
            mac=device.mac, index=device.index, delta=device.delta,
            segment=segment, length=length,
            generation=self._device_generation.get(device.mac, 0))

    @classmethod
    def attach(cls, descriptor: TableDescriptor) -> "EventTable":
        """Rebuild a read-only table view from a descriptor.

        Logs resolve lazily: each device's segment is mapped on first
        access, so attaching costs nothing until data is read.  The view
        replicates registry order, δ estimates and generation counters
        verbatim — every read API (including ``changed_since``) answers
        exactly as the owner's table does.
        """
        table = cls(store=_AttachedColumnStore())
        table._ap_vocab = list(descriptor.ap_vocab)
        table._ap_index = {ap: i for i, ap in enumerate(table._ap_vocab)}
        for state in descriptor.devices:
            table._adopt_device(state)
        table._generation = descriptor.generation
        table._event_count = descriptor.event_count
        table._max_event_id = descriptor.max_event_id
        return table

    def _adopt_device(self, state: DeviceState) -> None:
        device = self.registry.intern(state.mac)
        if device.index != state.index:
            raise EventTableError(
                f"device order diverged: {state.mac!r} has index "
                f"{device.index}, owner says {state.index}")
        device.delta = state.delta
        if state.segment is not None:
            old = self._logs.get(state.mac)
            handle = self._store.adopt(state.mac, state.segment,
                                       state.length)
            self._logs[state.mac] = DeviceLog(
                device, ap_vocab=self._ap_vocab, columns=handle)
            if old is not None:
                self._store.release(old.columns)
        if state.generation:
            self._device_generation[state.mac] = state.generation

    def sync_payload(self, since_generation: int) -> TableSync:
        """The delta an attached view needs to advance from a generation.

        Carries, for every device whose log changed after
        ``since_generation``, the *current* segment name, δ estimate and
        last-change generation — :meth:`apply_sync` swaps them in
        wholesale so the view lands bitwise on the owner's state
        regardless of how many merges the delta spans.
        """
        self._ensure_frozen()
        if not self._store.is_shared:
            raise EventTableError(
                "sync_payload() needs a shared-memory column store")
        changed = sorted((self.registry.get(mac) for mac in
                          self.changed_since(since_generation)),
                         key=lambda device: device.index)
        return TableSync(
            generation_before=since_generation,
            generation=self._generation,
            event_count=self._event_count,
            max_event_id=self._max_event_id,
            ap_vocab=tuple(self._ap_vocab),
            devices=tuple(self._device_state(device)
                          for device in changed))

    def apply_sync(self, payload: TableSync) -> None:
        """Advance an attached view to the owner's published state.

        The view must be exactly at ``payload.generation_before``
        (anything else means a missed or replayed sync — fail loudly
        rather than serve silently diverged data).
        """
        if not self._store.is_attached:
            raise EventTableError(
                "apply_sync targets attached table views; the owner "
                "advances through freeze()")
        if self._generation != payload.generation_before:
            raise EventTableError(
                f"sync base mismatch: view at generation "
                f"{self._generation}, payload expects "
                f"{payload.generation_before}")
        if tuple(self._ap_vocab) != \
                payload.ap_vocab[:len(self._ap_vocab)]:
            raise EventTableError("AP vocabulary diverged from owner")
        for ap in payload.ap_vocab[len(self._ap_vocab):]:
            self._ap_index[ap] = len(self._ap_vocab)
            self._ap_vocab.append(ap)
        for state in payload.devices:
            self._adopt_device(state)
        self._generation = payload.generation
        self._event_count = payload.event_count
        self._max_event_id = payload.max_event_id

    # ------------------------------------------------------------------
    # Change feed
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Monotone counter advanced by every freeze that merged rows.

        Pending rows are frozen first, as every read does, so a consumer
        that compares generations to decide whether it is stale always
        sees them.
        """
        self._ensure_frozen()
        return self._generation

    @property
    def max_event_id(self) -> int:
        """Largest event id ever appended (−1 when none was stamped)."""
        return self._max_event_id

    def changed_since(self, generation: int) -> frozenset[str]:
        """MACs of the devices whose logs changed after ``generation``.

        Pending rows are frozen first so the feed always reflects the
        current table.
        """
        self._ensure_frozen()
        return frozenset(mac for mac, changed in
                         self._device_generation.items()
                         if changed > generation)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def _ensure_frozen(self) -> None:
        if self._dirty:
            self.freeze()

    def __len__(self) -> int:
        return self._event_count

    @property
    def device_count(self) -> int:
        return len(self.registry)

    @property
    def ap_ids(self) -> tuple[str, ...]:
        """All AP ids observed, in first-seen order."""
        return tuple(self._ap_vocab)

    def macs(self) -> list[str]:
        """All device MACs observed."""
        return self.registry.macs()

    def log(self, mac: str) -> DeviceLog:
        """The chronologically sorted log of one device (E(d))."""
        self._ensure_frozen()
        if mac not in self.registry:
            raise UnknownDeviceError(f"device {mac!r} never observed")
        device_log = self._logs.get(mac)
        if device_log is None:
            device = self.registry.get(mac)
            device_log = DeviceLog(device,
                                   np.empty(0, dtype=np.float64),
                                   np.empty(0, dtype=np.int32),
                                   self._ap_vocab)
            self._logs[mac] = device_log
        return device_log

    def flat_logs(self) -> FlatLogs:
        """The current generation's logs as one :class:`FlatLogs`.

        Built on the first call after :attr:`generation` moves (pending
        rows are frozen first), then shared by every caller until the
        next generation: it is rebuilt, never patched.
        """
        self._ensure_frozen()
        flat = self._flat
        if flat is None or flat.generation != self._generation:
            flat = self._flat = self._build_flat()
        return flat

    def _build_flat(self) -> FlatLogs:
        generation = self._generation
        logs = [(mac, log) for mac, log in sorted(self._logs.items())
                if not log.is_empty]
        columns = [log.columns.arrays() for _, log in logs]
        lengths = np.array([times.size for times, _ in columns],
                           dtype=np.int64)
        offsets = np.zeros(len(logs) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        keys = np.empty(int(offsets[-1]), dtype=np.complex128)
        keys.real = np.repeat(np.arange(len(logs), dtype=np.float64),
                              lengths)
        keys.imag = np.concatenate(
            [np.empty(0, dtype=np.float64), *(times for times, _ in columns)])
        return FlatLogs(
            generation=generation,
            macs=tuple(mac for mac, _ in logs),
            devices=tuple(self.registry.get(mac) for mac, _ in logs),
            offsets=offsets, keys=keys,
            ap_codes=np.concatenate(
                [np.empty(0, dtype=np.int32), *(aps for _, aps in columns)]),
            ap_vocab=self._ap_vocab)

    def events_of(self, mac: str,
                  interval: "TimeInterval | None" = None
                  ) -> list[ConnectivityEvent]:
        """Materialized events of a device, optionally clipped to a window."""
        device_log = self.log(mac)
        if interval is None:
            return list(device_log.events())
        times, aps = device_log.slice_interval(interval)
        return [ConnectivityEvent(timestamp=float(t), mac=mac,
                                  ap_id=self._ap_vocab[int(a)])
                for t, a in zip(times, aps)]

    def span(self) -> TimeInterval:
        """Smallest interval containing every event in the table."""
        self._ensure_frozen()
        lo, hi = np.inf, -np.inf
        for device_log in self._logs.values():
            if len(device_log):
                lo = min(lo, float(device_log.times[0]))
                hi = max(hi, float(device_log.times[-1]))
        if lo > hi:
            raise EmptyHistoryError("event table contains no events")
        return TimeInterval(lo, hi + 1e-9)

    def devices_active_in(self, interval: TimeInterval) -> list[str]:
        """MACs with at least one event inside ``interval``."""
        self._ensure_frozen()
        return [mac for mac, device_log in self._logs.items()
                if device_log.count_in(interval) > 0]

    def restrict(self, interval: TimeInterval) -> "EventTable":
        """A new table containing only events inside ``interval`` (E_T).

        Built by slicing each :class:`DeviceLog`'s numpy arrays directly
        — no :class:`ConnectivityEvent` objects are materialized and no
        re-sort happens (each slice of a sorted log is sorted).  Every
        registered device is carried over with its delta estimate, even
        devices with no surviving events (their validity periods were
        estimated from the full history and remain meaningful).  The AP
        vocabulary is rebuilt in first-surviving-event order, matching
        what appending the sliced events one by one would produce.  The
        clipped table always uses a private heap store.
        """
        self._ensure_frozen()
        clipped = EventTable()
        ap_remap = np.full(len(self._ap_vocab), -1, dtype=np.int64)
        for mac in self.macs():
            device = clipped.registry.intern(mac)
            device.delta = self.registry.get(mac).delta
            log = self._logs.get(mac)
            if log is None or log.is_empty:
                continue
            times, aps = log.slice_interval(interval)
            if times.size == 0:
                continue
            # Intern this device's surviving APs in first-seen order.
            first_seen = aps[np.sort(np.unique(aps, return_index=True)[1])]
            for old_index in first_seen:
                if ap_remap[old_index] < 0:
                    ap_id = self._ap_vocab[int(old_index)]
                    ap_remap[old_index] = len(clipped._ap_vocab)
                    clipped._ap_index[ap_id] = len(clipped._ap_vocab)
                    clipped._ap_vocab.append(ap_id)
            handle = clipped._store.put(mac, times.copy(),
                                        ap_remap[aps].astype(np.int32))
            clipped._logs[mac] = DeviceLog(
                device, ap_vocab=clipped._ap_vocab, columns=handle)
            clipped._event_count += int(times.size)
        return clipped
