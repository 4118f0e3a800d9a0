"""Neighbor device discovery (paper §4.2).

A device d_k is a *neighbor* of the queried device d_i when (i) it is
online at t_q — some connectivity event of d_k is valid at t_q, placing it
in a region g_y without any cleaning; (ii) it can contribute non-zero
group affinity; and (iii) its region's rooms intersect the candidate set
R(gx).  Neighbors are what fine-grained inference iterates over.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.events.table import EventTable
from repro.events.validity import valid_event_at, valid_events_at
from repro.space.building import Building, RegionCodeResolver


@dataclass(frozen=True, slots=True)
class NeighborDevice:
    """One neighbor of the queried device at query time.

    Attributes:
        mac: The neighbor's MAC address.
        region_id: The region whose AP the neighbor was connected to at
            t_q (known directly from the valid event — no cleaning needed).
        candidate_rooms: R(gy): rooms the neighbor may be in.
        shared_rooms: R(gx) ∩ R(gy): rooms it shares with the query's
            candidate set — where co-location is possible.
    """

    mac: str
    region_id: int
    candidate_rooms: tuple[str, ...]
    shared_rooms: frozenset[str]


@dataclass(frozen=True, slots=True, eq=False)
class NeighborSnapshot:
    """The devices online at one timestamp, as rows of a table view.

    Attributes:
        macs: The :class:`~repro.events.table.FlatLogs` view's MAC tuple
            at the generation the snapshot was computed from.  Rows
            decode through it, never through the current view: an index
            used on its own keeps its memoized snapshots across
            generations, and a new device shifts every later row.  Only
            the tuple is kept, not the view, whose event arrays would pin
            a whole generation.
        rows: Row (in ``macs``) of each online device, ascending — so in
            sorted-MAC order.
        region_ids: Region of each one's valid event (int32, aligned
            with ``rows``).
    """

    macs: tuple[str, ...]
    rows: np.ndarray
    region_ids: np.ndarray

    def online(self) -> list[tuple[str, int]]:
        """(mac, region id) of each online device, in sorted-MAC order."""
        macs = self.macs
        return [(macs[row], region_id) for row, region_id in
                zip(self.rows.tolist(), self.region_ids.tolist())]


class NeighborIndex:
    """Batch neighbor discovery: one online snapshot per distinct time.

    :func:`find_neighbors` scans every device's log per query.  A batch
    of queries sharing a timestamp (occupancy grids, contact tracing,
    trajectory sampling on a common grid) repeats that scan needlessly —
    the set of online devices and their regions depends only on the
    timestamp.  This index computes one :class:`NeighborSnapshot` per
    distinct timestamp and derives each query's neighbor list from it.

    ``neighbors_for`` returns exactly what :func:`find_neighbors` would
    for the same arguments — same devices, same order, same cap — so the
    batch engine stays bitwise-equivalent to the sequential path.

    A snapshot is one vectorized pass, not a loop over devices:
    :func:`~repro.events.validity.valid_events_at` finds every device's
    valid event at once over the table's
    :meth:`~repro.events.table.EventTable.flat_logs`, the logs of the
    current generation concatenated in sorted-MAC order, and a
    :class:`~repro.space.building.RegionCodeResolver` maps those events'
    AP codes to region ids (raising ``UnknownRegionError`` exactly when
    an online device holds an AP outside the building).  The snapshot
    keeps two int32 arrays — each online device's row and region id —
    plus the view's ``macs`` tuple, which every snapshot of one
    generation shares.  ``neighbors_for`` selects the rows whose region
    overlaps the query's with one row of the building's precomputed
    region × region overlap table, and builds :class:`NeighborDevice`
    objects only for the first ``max_neighbors`` hits, from the
    building's per-region candidate tuples and per-pair shared rooms.

    The table builds the view on the first read after a freeze moves its
    generation and shares it with every index (and every in-process
    shard) over the table, so a snapshot computed after an append sees
    the new rows without any ingest hook.  δ is read from the registry
    on each snapshot, so a refit δ applies to the next uncached
    timestamp.  Snapshots already memoized are another matter: the
    index never drops one by itself, so an index used on its own keeps
    them across generations (each decodes through its own ``macs``).

    Each ``Locater`` owns one in its warm state and keeps it across
    calls: ``max_snapshots`` bounds memory (snapshots are memos:
    evicting the oldest-inserted only costs a recompute), and the
    locater's pull calls :meth:`invalidate_all` whenever the table's
    generation moved, so no snapshot it serves outlives the validity
    windows it was computed from.
    """

    def __init__(self, building: Building, table: EventTable,
                 max_snapshots: "int | None" = None) -> None:
        self._building = building
        self._table = table
        self._max_snapshots = max_snapshots
        self._snapshots: dict[float, NeighborSnapshot] = {}
        self._region_codes = RegionCodeResolver(building)

    @property
    def snapshot_count(self) -> int:
        """Cached snapshots currently held (memory accounting)."""
        return len(self._snapshots)

    def invalidate_all(self) -> int:
        """Drop every cached snapshot; returns how many were dropped."""
        dropped = len(self._snapshots)
        self._snapshots.clear()
        return dropped

    def snapshot(self, timestamp: float) -> NeighborSnapshot:
        """Online devices at ``timestamp``, memoized per timestamp."""
        snap = self._snapshots.get(timestamp)
        if snap is None:
            flat = self._table.flat_logs()
            rows, positions = valid_events_at(flat, timestamp)
            region_ids = self._region_codes.regions_of(
                flat.ap_vocab, flat.ap_codes[positions])
            snap = NeighborSnapshot(macs=flat.macs,
                                    rows=rows.astype(np.int32),
                                    region_ids=region_ids.astype(np.int32))
            if self._max_snapshots is not None and \
                    len(self._snapshots) >= self._max_snapshots:
                # FIFO eviction (dicts preserve insertion order): a
                # snapshot is a memo, so dropping one only costs a
                # recompute on the next query at that timestamp.
                self._snapshots.pop(next(iter(self._snapshots)))
            self._snapshots[timestamp] = snap
        return snap

    def neighbors_for(self, mac: str, timestamp: float, region_id: int,
                      max_neighbors: "int | None" = None
                      ) -> list[NeighborDevice]:
        """Same contract and result as :func:`find_neighbors`."""
        building = self._building
        overlap = building.region_overlap(region_id)
        shared_rooms = building.shared_rooms_of(region_id)
        snap = self.snapshot(timestamp)
        hits = np.flatnonzero(overlap[snap.region_ids])
        limit = len(hits) if max_neighbors is None else max(max_neighbors, 0)
        # Each MAC is online once, so the first limit + 1 hits hold the
        # first ``limit`` that are not the queried device.
        hits = hits[:limit + 1]
        macs = snap.macs
        neighbors: list[NeighborDevice] = []
        for row, other_region in zip(snap.rows[hits].tolist(),
                                     snap.region_ids[hits].tolist()):
            if len(neighbors) >= limit:
                break
            other = macs[row]
            if other == mac:
                continue
            neighbors.append(NeighborDevice(
                mac=other,
                region_id=other_region,
                candidate_rooms=building.candidate_room_ids(other_region),
                shared_rooms=shared_rooms[other_region],
            ))
        return neighbors


def find_neighbors(building: Building, table: EventTable, mac: str,
                   timestamp: float, region_id: int,
                   max_neighbors: "int | None" = None) -> list[NeighborDevice]:
    """All neighbors of ``mac`` at ``timestamp`` given its region ``gx``.

    Scans devices with an event valid at t_q (online devices).  Order is
    deterministic (by MAC); the caching engine re-orders by affinity.

    Args:
        max_neighbors: Optional cap (the iterative algorithm's early-stop
            usually makes large neighbor sets unnecessary anyway).
    """
    query_region = building.region(region_id)
    neighbors: list[NeighborDevice] = []
    for other in sorted(table.macs()):
        if max_neighbors is not None and len(neighbors) >= max_neighbors:
            break
        if other == mac:
            continue
        log = table.log(other)
        if log.is_empty:
            continue
        hit = valid_event_at(log, timestamp)
        if hit is None:
            continue  # offline at t_q
        other_region = building.region_of_ap(hit.ap_id)
        shared = query_region.shared_rooms(other_region)
        if not shared:
            continue  # no overlap: cannot influence the room choice
        neighbors.append(NeighborDevice(
            mac=other,
            region_id=other_region.region_id,
            candidate_rooms=tuple(sorted(other_region.rooms)),
            shared_rooms=shared,
        ))
    return neighbors
