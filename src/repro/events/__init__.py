"""WiFi connectivity data model: events, devices, validity, gaps.

Implements the paper's Section 2 data model: connectivity events
``⟨mac, timestamp, wap⟩`` with per-device temporal validity ``δ(d)``,
from which *gaps* — maximal periods with no valid event — are derived.

Column stores
-------------

Each device's hot numeric columns — event timestamps (float64) and AP
vocabulary codes (int32) — live behind a :class:`~repro.events.columns.
ColumnStore`, not in plain attributes.  The store contract
(:mod:`repro.events.columns`):

* ``put(key, times, aps)`` accepts the arrays once and returns a
  :class:`~repro.events.columns.ColumnHandle`; ``handle.arrays()``
  yields them back *bitwise identical*, every time, no matter what the
  store did with the bytes in between.  Handles are the only owners of
  column memory — ``DeviceLog`` holds a handle, never a bare array.
* :class:`~repro.events.columns.HeapColumnStore` (the default) keeps
  ordinary heap arrays.
* :class:`~repro.events.columns.SharedMemoryColumnStore` places columns
  in named ``multiprocessing.shared_memory`` segments so other
  processes *attach* by name instead of copying.  Lifecycle rule, held
  by two store types: the **owner** store (the one that ``put`` the
  data) unlinks segments on ``release``/``close``; the **attached**
  store that :meth:`EventTable.attach
  <repro.events.table.EventTable.attach>` builds from a
  :class:`~repro.events.table.TableDescriptor` has ``adopt()``, no
  ``put`` and no unlink path — it only closes its maps, views it
  handed out stay readable until the last reference dies, and attached
  arrays are mapped read-only (``writeable=False``) so a shard can
  never mutate the table behind the owner's back.

``EventTable.describe()`` / ``EventTable.attach()`` ride on this:
workers reconstruct a read-only table from segment names (O(1) bytes
shipped), and ingest publishes new generations via ``sync_payload`` /
``apply_sync`` so attached tables catch up without re-copying history.

Flat view
---------

Reads that ask about every device at one time — the neighbor snapshot
of §4.2, "who is online at t" — go through
:meth:`~repro.events.table.EventTable.flat_logs`: one
:class:`~repro.events.table.FlatLogs` holding the non-empty logs
concatenated in sorted-MAC order (per-device offsets, complex
``row + i·time`` search keys, AP codes).
:func:`~repro.events.validity.valid_events_at` applies the §2 window
rule of :func:`~repro.events.validity.valid_event_at` to every device
at once over it, reading δ from the registry at call time.

* **Freshness is pulled.** The view is keyed by the table's
  ``generation``: the first read after a freeze (or an attached view's
  ``apply_sync``) builds a new one, and nothing patches it, so no ingest
  path has to notify it.  Every reader of one table object shares it.
* **Memory.** 20 bytes per event (16 search key, 4 AP code) plus 8 per
  device, a copy next to the column store.  A process shard attached
  to shared-memory columns builds its own copy in its own heap, which
  the column-byte accounting (``EventTable.memory_stats``) does not
  count.
"""

from repro.events.columns import (
    ColumnHandle,
    ColumnStore,
    HeapColumnStore,
    SharedMemoryColumnStore,
    purge_orphan_segments,
)
from repro.events.device import Device, DeviceRegistry
from repro.events.event import ConnectivityEvent
from repro.events.gaps import Gap, extract_gaps, find_gap_at
from repro.events.table import (
    DeviceLog,
    EventTable,
    FlatLogs,
    TableDescriptor,
    TableSync,
)
from repro.events.validity import (
    DeltaEstimator,
    ValidityInterval,
    validity_intervals,
)

__all__ = [
    "ColumnHandle",
    "ColumnStore",
    "ConnectivityEvent",
    "DeltaEstimator",
    "Device",
    "DeviceLog",
    "DeviceRegistry",
    "EventTable",
    "FlatLogs",
    "Gap",
    "HeapColumnStore",
    "SharedMemoryColumnStore",
    "TableDescriptor",
    "TableSync",
    "ValidityInterval",
    "extract_gaps",
    "find_gap_at",
    "purge_orphan_segments",
    "validity_intervals",
]
