"""Shard routing: which shard owns which device.

Every shard of a :class:`~repro.cluster.sharded.ShardedLocater` reads
the whole event log (cleaning couples devices through co-location, so a
shard answering queries from a partial log would change answers), and
the cluster partitions *serving ownership*: each device's queries,
trained coarse models, cleaned-answer storage and cache warm state live
on exactly one shard.  The cluster builds one
:class:`ComponentAffinityRouter` to decide that assignment, and its
configuration decides how the router is fed:

* **Caching on** — the cluster binds every device of its table at
  construction and re-binds changed devices at every ingest.  Each
  device then routes by its co-presence component (see the class
  docstring), so every device that can ever share a §5 affinity edge
  with it shares its shard and its cache.
* **Caching off** — answers are pure functions of the table, so nothing
  needs co-locating: the cluster never feeds the router, and every
  device keeps its unbound route, ``stable_hash(mac) % shard_count``.
  That spreads a single giant component (a whole building) over every
  shard.

Routes are **deterministic and ingest-bound**: ``shard_of`` never
depends on query order, process identity or Python's salted ``hash``,
and binding state changes only in
:meth:`ComponentAffinityRouter.observe_table`, which the cluster calls
when it catches up with a merge, before it routes any query against the
merged table.  A merge of two components re-keys one side;
``observe_table`` returns every re-keyed device, and the cluster
exchanges its recorded cache edges to the new owning shard (so that
shard's affinity reads stay exactly what a lone deployment would see).
Stored answers need no move: every merge purges every shard's
namespace.  Trained models and memos are pure
functions of the shared log and need no migration — the old shard
merely keeps warm state it will no longer use.
"""

from __future__ import annotations

import zlib
from collections.abc import Iterable, Sequence
from typing import TypeVar

import numpy as np

from repro.cache.components import AffinityComponents
from repro.errors import ConfigurationError
from repro.events.event import ConnectivityEvent
from repro.events.table import EventTable
from repro.space.building import Building

T = TypeVar("T")


def stable_hash(mac: str) -> int:
    """A process-independent, salt-free hash of a device id."""
    return zlib.crc32(mac.encode("utf-8"))


#: Node tags of the router's bipartite device↔room union-find.  Devices
#: sort before rooms, so a component's minimum member is always a device
#: node and the routing representative is the smallest device MAC.
_DEVICE_TAG = "0:"
_ROOM_TAG = "1:"


class ComponentAffinityRouter:
    """Route by connected component of the potential co-presence graph.

    Two devices can ever become fine-inference neighbors — and hence
    ever share a §5 affinity edge — only if the rooms covered by their
    observed APs' regions intersect.  This router maintains exactly
    that reachability as a bipartite device↔room union-find: observing
    a device at an AP unions the device with every room of the AP's
    region, so two devices share a component iff their room sets are
    connected (possibly transitively, through other devices).  Every
    bound device routes to ``stable_hash(representative) %
    shard_count`` with the representative the component's smallest
    device MAC — a pure function of the component's member set,
    invariant to event order.  An unbound device (never observed, or
    only at APs the building does not know) routes by
    ``stable_hash(mac)``.

    Because the query path only ever touches affinity edges between a
    queried device and its neighbors, co-locating whole components
    makes each shard's cache **exact**: it performs the same edge reads
    and writes, in the same order, as a lone deployment (see
    :mod:`repro.cache.components`).  A singleton component hashes to
    the device's own MAC — the unbound route — so binding a loner never
    moves it.

    Components merge as logs grow; a merge re-keys the devices of the
    side with the larger representative, and :meth:`observe_table`
    reports every re-keyed device so the cluster can migrate its cache
    edges (see the module docstring).

    Args:
        building: The space model (a single building or merged campus);
            only its AP → region-rooms covering map is retained.
    """

    def __init__(self, building: Building) -> None:
        self._rooms_of_ap: dict[str, frozenset[str]] = {
            region.ap_id: region.rooms for region in building.regions}
        if not self._rooms_of_ap:
            raise ConfigurationError(
                "component-affinity routing needs a building with at "
                "least one AP region")
        self._components = AffinityComponents()
        self._seen_aps: dict[str, set[str]] = {}

    @classmethod
    def from_table(cls, table: EventTable,
                   building: Building) -> "ComponentAffinityRouter":
        """Bind every device already in ``table`` to its component."""
        router = cls(building)
        router.observe_table(table, table.macs())
        return router

    # ------------------------------------------------------------------
    def observe_table(self, table: EventTable,
                      macs: Iterable[str]) -> frozenset[str]:
        """Union each changed device with its newly observed APs' rooms.

        Scans only the *distinct* APs of each device's log (a vectorized
        unique over its AP index column), skipping APs already
        absorbed, so repeated observation of a busy device costs one
        ``np.unique`` plus O(new APs) union work.  Components depend
        only on the set of (device, AP) pairs seen, so observing a
        table after each of several ingests binds exactly what one
        :meth:`from_table` over the final table binds.

        Returns every device whose routing key changed: the devices of
        each component that merged into one with a smaller
        representative — including devices far outside ``macs``.
        """
        moved: set[str] = set()
        for mac in sorted(set(macs)):
            if mac not in table.registry:
                continue
            log = table.log(mac)
            distinct = (log.resolve_ap(int(index))
                        for index in np.unique(log.ap_indices))
            self._absorb(mac, distinct, moved)
        return frozenset(moved)

    def _absorb(self, mac: str, ap_ids: Iterable[str],
                moved: "set[str]") -> None:
        """Union ``mac`` with the rooms of its not-yet-seen APs.

        Collects into ``moved`` the device MACs whose component
        representative changed: on every merge, the member devices of
        the side whose representative lost (the larger one).
        """
        seen = self._seen_aps.setdefault(mac, set())
        node = _DEVICE_TAG + mac
        for ap_id in ap_ids:
            if ap_id in seen:
                continue
            seen.add(ap_id)
            rooms = self._rooms_of_ap.get(ap_id)
            if rooms is None:
                continue
            self._components.add_node(node)
            for room in sorted(rooms):
                room_node = _ROOM_TAG + room
                self._components.add_node(room_node)
                rep_device = self._components.representative(node)
                rep_room = self._components.representative(room_node)
                if rep_device == rep_room:
                    continue
                loser = max(rep_device, rep_room)
                moved.update(
                    member[len(_DEVICE_TAG):]
                    for member in self._components.component(loser)
                    if member.startswith(_DEVICE_TAG))
                self._components.add_edge(node, room_node)

    # ------------------------------------------------------------------
    def representative(self, mac: str) -> "str | None":
        """The routing key of ``mac``'s component, or None (unbound)."""
        node = _DEVICE_TAG + mac
        if node not in self._components:
            return None
        return self._components.representative(node)[len(_DEVICE_TAG):]

    def component_of(self, mac: str) -> frozenset[str]:
        """The device MACs sharing ``mac``'s component (empty: unbound)."""
        node = _DEVICE_TAG + mac
        if node not in self._components:
            return frozenset()
        return frozenset(
            member[len(_DEVICE_TAG):]
            for member in self._components.component(node)
            if member.startswith(_DEVICE_TAG))

    def shard_of(self, mac: str, shard_count: int) -> int:
        """The owning shard of ``mac``, in ``range(shard_count)``."""
        representative = self.representative(mac)
        return stable_hash(representative if representative is not None
                           else mac) % shard_count

    def partition(self, items: Sequence[T], macs: Sequence[str],
                  shard_count: int) -> "list[list[T]]":
        """Split ``items`` (with parallel ``macs``) into per-shard lists.

        Order within each shard preserves input order — which is what
        keeps duplicate (mac, timestamp) queries short-circuiting
        through storage exactly as the single-system path does.
        """
        if len(items) != len(macs):
            raise ConfigurationError(
                f"items and macs must align, got {len(items)} vs "
                f"{len(macs)}")
        out: "list[list[T]]" = [[] for _ in range(shard_count)]
        for item, mac in zip(items, macs):
            out[self.shard_of(mac, shard_count)].append(item)
        return out

    def __repr__(self) -> str:
        return (f"ComponentAffinityRouter({len(self._seen_aps)} devices "
                f"observed, {self._components.component_count} components)")


def partition_events(events: Sequence[ConnectivityEvent],
                     router: ComponentAffinityRouter,
                     shard_count: int) -> "list[list[ConnectivityEvent]]":
    """Split an event batch into per-shard sub-batches by owner device.

    The union of the partitions is the input batch exactly once — the
    split a cluster uses to persist each shard's slice of the dirty
    stream to its storage namespace without duplicating rows.
    """
    return router.partition(events, [e.mac for e in events], shard_count)
