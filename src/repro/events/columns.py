"""Column storage backends for the event table.

The hot data of an :class:`~repro.events.table.EventTable` is two numeric
columns per device — ``times`` (float64) and ``ap_indices`` (int32).
This module owns *where those bytes live*, behind one small contract:

* :class:`HeapColumnStore` (the default) keeps each device's columns as
  ordinary process-heap numpy arrays, exactly as before the abstraction
  existed.
* :class:`SharedMemoryColumnStore` is the **owner** of named
  ``multiprocessing.shared_memory`` segments, one per device log: it
  creates them on ``put`` and unlinks them on release.  Any other
  process reads the same physical pages through a table view
  (:meth:`EventTable.attach <repro.events.table.EventTable.attach>`),
  whose private attached store adopts segments *by name* and has no
  ``put`` and no unlink path — one copy of the log no matter how many
  shard workers serve from it, and no dependence on ``fork``
  copy-on-write semantics (a spawned worker can attach too).

Contract (what :class:`~repro.events.table.EventTable` relies on):

* ``put(key, times, aps)`` returns a :class:`ColumnHandle` whose
  ``arrays()`` resolves to arrays bitwise-equal to the ones put in.
  Column data behind a handle is **immutable** — a merge produces new
  arrays and a new handle; the old handle is passed to ``release``.
* Handles resolve lazily.  An adopted (attached) handle maps its
  segment on the first ``arrays()`` call; resolution never changes
  values, only where they are read from.
* Lifecycle: ``release(handle)`` frees one handle's storage (the owner
  unlinks its segment; an attached store merely unmaps).  ``close()``
  tears the whole store down — after it, resolving any handle of the
  store is undefined.  Owners must close their stores; leaked shared
  segments are reclaimed only by the interpreter's resource tracker at
  exit, with a warning.
* Numpy views handed out earlier (log slices cached in memos) keep the
  underlying buffer alive via ordinary refcounting, so releasing a
  handle never invalidates data a computation already holds — at worst
  the unmap is deferred until the last view dies.
"""

from __future__ import annotations

import os
import re
import uuid
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.errors import EventTableError

#: dtype/layout of the column pair inside one buffer: ``times`` first
#: (8 bytes per event), then ``ap_indices`` (4 bytes per event).  The
#: aps offset ``8 * length`` is always 4-aligned, so both views are
#: aligned no matter the log length.
TIMES_DTYPE = np.float64
APS_DTYPE = np.int32
BYTES_PER_EVENT = 12


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker adoption.

    On Python < 3.13 attaching registers the segment with the resource
    tracker exactly as creating does (bpo-39959): a reader exiting would
    log "leaked shared_memory" warnings and the tracker would *unlink*
    segments the owner still serves.  Unregistering after the fact is
    the commonly cited workaround, but under ``fork`` the tracker
    process is shared with the owner, so a reader's unregister silently
    deletes the owner's registration too (the owner's own unlink then
    trips a KeyError inside the tracker).  Suppressing registration
    during the attach call leaves the owner's bookkeeping untouched in
    both start methods; 3.13+ exposes ``track=False`` for exactly this.
    Safe unsynchronized: shard workers are single-threaded actors.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _close_quietly(segment: shared_memory.SharedMemory) -> None:
    """Unmap a segment, tolerating live numpy views into it.

    ``mmap.close`` raises ``BufferError`` while exported views exist
    (slices of a log cached in batch memos, say).  Refcounting keeps the
    mapping alive for those views anyway, so deferring the unmap to
    their garbage collection is safe — the unlink (owner side) is what
    actually retires the segment name.  The buffers are detached from
    the segment object so its ``__del__`` does not retry the close and
    log the same BufferError as an unraisable exception; the file
    descriptor can close immediately (munmap never needs it).
    """
    try:
        segment.close()
    except BufferError:
        segment._buf = None  # type: ignore[attr-defined]
        segment._mmap = None  # type: ignore[attr-defined]
        if segment._fd >= 0:  # type: ignore[attr-defined]
            os.close(segment._fd)  # type: ignore[attr-defined]
            segment._fd = -1  # type: ignore[attr-defined]


class ColumnHandle:
    """One device log's column pair, resolved lazily from its backend.

    Subclass contract: ``_load()`` materializes ``(_times, _aps)`` and
    returns them; data is immutable for the handle's lifetime.
    """

    __slots__ = ("key", "length", "_times", "_aps")

    def __init__(self, key: str, length: int) -> None:
        self.key = key
        self.length = length
        self._times: "np.ndarray | None" = None
        self._aps: "np.ndarray | None" = None

    @property
    def nbytes(self) -> int:
        """Logical size of the column data (resident or not)."""
        return self.length * BYTES_PER_EVENT

    @property
    def resident(self) -> bool:
        """Whether the arrays are currently materialized in this process."""
        return self._times is not None

    def arrays(self) -> "tuple[np.ndarray, np.ndarray]":
        """The ``(times, ap_indices)`` pair, materializing if needed."""
        times = self._times
        if times is not None:
            return times, self._aps  # type: ignore[return-value]
        return self._load()

    def _load(self) -> "tuple[np.ndarray, np.ndarray]":
        raise NotImplementedError


class _ResidentColumns(ColumnHandle):
    """Plain in-memory columns.

    What a :class:`HeapColumnStore` registers (its ``release`` drops the
    arrays), and what a :class:`DeviceLog` built directly from arrays
    (table slices, empty logs, tests) wraps with no store behind it.
    """

    __slots__ = ()

    def __init__(self, key: str, times: np.ndarray,
                 aps: np.ndarray) -> None:
        super().__init__(key, int(times.size))
        self._times = times
        self._aps = aps

    def _load(self) -> "tuple[np.ndarray, np.ndarray]":
        raise EventTableError(
            f"resident columns of {self.key!r} lost their arrays")


def _segment_views(segment: shared_memory.SharedMemory,
                   length: int) -> "tuple[np.ndarray, np.ndarray]":
    """Read-only ``(times, ap_indices)`` views into one segment."""
    buf = segment.buf
    times = np.frombuffer(buf, dtype=TIMES_DTYPE, count=length)
    aps = np.frombuffer(buf, dtype=APS_DTYPE, count=length,
                        offset=8 * length)
    # Readers must never mutate the one physical copy in place.
    times.flags.writeable = False
    aps.flags.writeable = False
    return times, aps


class SharedColumnHandle(ColumnHandle):
    """Columns in a shared-memory segment this process created.

    Only :class:`SharedMemoryColumnStore` builds these, mapped from the
    start; its release is the one place a segment is unlinked.
    """

    __slots__ = ("segment_name", "_segment")

    def __init__(self, key: str, segment: shared_memory.SharedMemory,
                 length: int) -> None:
        super().__init__(key, length)
        self.segment_name = segment.name
        self._segment = segment
        self._times, self._aps = _segment_views(segment, length)

    def _load(self) -> "tuple[np.ndarray, np.ndarray]":
        raise EventTableError(
            f"the segment of {self.key!r} was released")


class _AttachedColumns(ColumnHandle):
    """Columns in a segment another store published, mapped by name on
    first read.  Releasing one only unmaps: it has no unlink path."""

    __slots__ = ("segment_name", "_segment")

    def __init__(self, key: str, segment_name: str, length: int) -> None:
        super().__init__(key, length)
        self.segment_name = segment_name
        self._segment: "shared_memory.SharedMemory | None" = None

    def _load(self) -> "tuple[np.ndarray, np.ndarray]":
        if self._segment is None:
            self._segment = _attach_segment(self.segment_name)
        views = _segment_views(self._segment, self.length)
        self._times, self._aps = views
        return views

    def _unmap(self) -> None:
        self._times = None
        self._aps = None
        if self._segment is not None:
            _close_quietly(self._segment)
            self._segment = None


class ColumnStore:
    """Base class: the column handles of one event table and their
    teardown.

    A store a table writes through (:class:`HeapColumnStore`,
    :class:`SharedMemoryColumnStore`) also has ``put(key, times,
    ap_indices)``, returning the resolving handle.  The attached store
    behind an :meth:`EventTable.attach
    <repro.events.table.EventTable.attach>` view has ``adopt`` instead,
    and no ``put``.
    """

    #: Human-readable backend tag (surfaced by accounting/stats).
    kind: str = "abstract"
    #: Whether other processes can resolve this store's handles by name.
    is_shared: bool = False
    #: Whether this store resolves handles another process created (a
    #: table view's store, which never writes).
    is_attached: bool = False

    def __init__(self) -> None:
        self._handles: "set[ColumnHandle]" = set()
        self._closed = False

    def release(self, handle: ColumnHandle) -> None:
        """Free one handle's storage (a merge replaced it).

        Foreign handles — columns a log wraps with no store behind them,
        or handles of another store — are ignored, so callers can
        release whatever a log happens to carry.
        """
        if handle in self._handles:
            self._handles.discard(handle)
            self._release(handle)

    def _release(self, handle: ColumnHandle) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Free every handle and the store's backing resources."""
        if self._closed:
            return
        self._closed = True
        for handle in sorted(self._handles, key=lambda h: h.key):
            self._release(handle)
        self._handles.clear()

    @property
    def closed(self) -> bool:
        return self._closed

    def stats(self) -> dict:
        """Accounting snapshot (bytes are exact, from handle lengths)."""
        return {
            "kind": self.kind,
            "segments": len(self._handles),
            "column_bytes": sum(h.nbytes for h in self._handles),  # repro-lint: disable=RL002  integer sum, order-independent
        }

    def __enter__(self) -> "ColumnStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class HeapColumnStore(ColumnStore):
    """Process-heap columns (the default)."""

    kind = "heap"

    def put(self, key: str, times: np.ndarray,
            ap_indices: np.ndarray) -> ColumnHandle:
        """Store one log's columns; returns the resolving handle."""
        if times.shape != ap_indices.shape:
            raise EventTableError("times and ap_indices must align")
        handle = _ResidentColumns(key, times, ap_indices)
        self._handles.add(handle)
        return handle

    def _release(self, handle: ColumnHandle) -> None:
        handle._times = None
        handle._aps = None


class SharedMemoryColumnStore(ColumnStore):
    """The owner of named shared-memory segments, one per device log.

    ``put`` creates a segment, and ``release``/``close`` unlink it.
    Exactly one process — the one maintaining the authoritative table —
    owns the segments; other processes read them through the attached
    store of an :meth:`EventTable.attach
    <repro.events.table.EventTable.attach>` view, which only unmaps.
    """

    kind = "shared"
    is_shared = True

    def __init__(self) -> None:
        super().__init__()
        # Segment names must be unique machine-wide and short (NAME_MAX
        # applies); the prefix keys all segments of one store.  The full
        # owner pid is embedded so :func:`purge_orphan_segments` can
        # tell a crashed owner's leftovers from a live one's segments.
        self._prefix = f"loc-{os.getpid()}-{uuid.uuid4().hex[:6]}"
        self._sequence = 0

    def put(self, key: str, times: np.ndarray,
            ap_indices: np.ndarray) -> SharedColumnHandle:
        """Copy one log's columns into a new segment; returns its handle."""
        if times.shape != ap_indices.shape:
            raise EventTableError("times and ap_indices must align")
        n = int(times.size)
        self._sequence += 1
        segment = shared_memory.SharedMemory(
            create=True, size=max(1, n * BYTES_PER_EVENT),
            name=f"{self._prefix}-{self._sequence:06d}")
        buf = segment.buf
        np.frombuffer(buf, dtype=TIMES_DTYPE, count=n)[:] = \
            np.ascontiguousarray(times, dtype=TIMES_DTYPE)
        np.frombuffer(buf, dtype=APS_DTYPE, count=n, offset=8 * n)[:] = \
            np.ascontiguousarray(ap_indices, dtype=APS_DTYPE)
        handle = SharedColumnHandle(key, segment, n)
        self._handles.add(handle)
        return handle

    def _release(self, handle: SharedColumnHandle) -> None:
        handle._times = None
        handle._aps = None
        _close_quietly(handle._segment)
        try:
            handle._segment.unlink()
        except FileNotFoundError:
            pass


class _AttachedColumnStore(ColumnStore):
    """A table view's store: segments adopted by name, never written.

    Built only by :meth:`EventTable.attach
    <repro.events.table.EventTable.attach>`.  Its handles are
    :class:`_AttachedColumns`, so ``release``/``close`` only unmap.
    """

    kind = "shared-attached"
    is_shared = True
    is_attached = True

    def adopt(self, key: str, segment_name: str,
              length: int) -> _AttachedColumns:
        """Register a handle for a segment some owner published.

        Resolution is lazy: the segment is attached on the first
        ``arrays()`` call, so adopting a descriptor's worth of names is
        free and a reader maps only the logs it actually touches.
        """
        handle = _AttachedColumns(key, segment_name, length)
        self._handles.add(handle)
        return handle

    def _release(self, handle: _AttachedColumns) -> None:
        handle._unmap()


#: Segment names minted by owner-mode stores: ``loc-<pid>-<token>-<seq>``.
_SEGMENT_NAME_RE = re.compile(r"^loc-(\d+)-[0-9a-f]+-\d{6}$")


def _owner_alive(pid: int) -> bool:
    """Whether the process that minted a segment name still runs.

    Signal 0 probes existence without delivering anything; EPERM means
    the pid exists but belongs to another user — still alive.
    """
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def purge_orphan_segments(shm_dir: str = "/dev/shm") -> list[str]:
    """Unlink shared-memory segments whose owning process died hard.

    The crash-safety gap in the segment lifecycle: an owner that exits
    cleanly unlinks its segments, and an owner that merely crashes
    *inside Python* is covered by the resource tracker — but an owner
    SIGKILLed under ``fork`` shares the tracker process with its parent,
    and the tracker only reclaims at *parent* exit.  Until then the
    orphan pins ``/dev/shm`` (and tmpfs is RAM).  This sweep closes the
    window: every segment name embeds its owner's pid, so a segment
    whose owner no longer exists is provably garbage — no live store can
    resolve it (attach is by exact name, and readers never outlive the
    tables that adopted the names).

    Scans ``shm_dir`` for owner-minted names, probes each embedded pid,
    and unlinks segments of dead owners.  Returns the reclaimed names
    (sorted, deterministic).  Safe to call from any process at any time:
    live owners are never touched, races with a concurrent purge or the
    resource tracker are tolerated (already-gone is success).
    """
    try:
        names = sorted(os.listdir(shm_dir))
    except OSError:
        return []
    reclaimed: list[str] = []
    for name in names:
        match = _SEGMENT_NAME_RE.match(name)
        if match is None:
            continue
        owner_dead = not _owner_alive(int(match.group(1)))
        if owner_dead:
            try:
                os.unlink(os.path.join(shm_dir, name))
            except OSError:
                continue
            # In the common case the purger is the parent of the dead
            # (forked) owner and shares its resource tracker — drop the
            # stale registration so tracker shutdown stays silent.  The
            # register/unregister pair nets to "not registered" without
            # tripping the tracker's KeyError when the dead owner used
            # its own tracker (its registrations died with it).
            try:
                resource_tracker.register(f"/{name}", "shared_memory")
                resource_tracker.unregister(f"/{name}", "shared_memory")
            except Exception:
                pass
            reclaimed.append(name)
    return reclaimed
