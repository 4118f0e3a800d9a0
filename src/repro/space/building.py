"""The building: rooms + access points + derived regions, with fast lookups."""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import SpaceModelError, UnknownRegionError, UnknownRoomError
from repro.space.access_point import AccessPoint
from repro.space.region import Region
from repro.space.room import Room
from repro.space.room_index import RoomIndex


class Building:
    """An immutable building model at the three LOCATER granularities.

    A building owns a set of :class:`Room` objects and a set of
    :class:`AccessPoint` objects; each AP induces exactly one
    :class:`Region` (paper Section 2: ``|G| = |WAP|``).  All lookups used in
    the inner loops of the localizers are precomputed here: room ->
    regions, AP -> region, region -> candidate-room tuple, the region ×
    region overlap table (do R(gx) and R(gy) share a room?) and, per
    overlapping pair, the shared rooms R(gx) ∩ R(gy).  The topology
    never changes, so neighbor discovery picks a query's neighbors with
    one row of the overlap table instead of intersecting room sets.
    Every accessor validates its region id first (a negative index would
    wrap silently in a tuple or array).

    Instances are cheap to share between threads: all state is built in the
    constructor and never mutated afterwards.
    """

    def __init__(self, name: str, rooms: Iterable[Room],
                 access_points: Iterable[AccessPoint]) -> None:
        self.name = name
        self._rooms: dict[str, Room] = {}
        for room in rooms:
            if room.room_id in self._rooms:
                raise SpaceModelError(
                    f"duplicate room id {room.room_id!r} in building {name!r}")
            self._rooms[room.room_id] = room
        if not self._rooms:
            raise SpaceModelError(f"building {name!r} has no rooms")

        self._aps: dict[str, AccessPoint] = {}
        self._regions: list[Region] = []
        self._region_by_ap: dict[str, Region] = {}
        for ap in access_points:
            if ap.ap_id in self._aps:
                raise SpaceModelError(
                    f"duplicate AP id {ap.ap_id!r} in building {name!r}")
            missing = [r for r in ap.covered_rooms if r not in self._rooms]
            if missing:
                raise SpaceModelError(
                    f"AP {ap.ap_id!r} covers unknown rooms: {sorted(missing)}")
            region = Region(region_id=len(self._regions), ap_id=ap.ap_id,
                            rooms=ap.covered_rooms)
            self._aps[ap.ap_id] = ap
            self._regions.append(region)
            self._region_by_ap[ap.ap_id] = region
        if not self._regions:
            raise SpaceModelError(f"building {name!r} has no access points")

        self._regions_of_room: dict[str, tuple[Region, ...]] = {
            room_id: tuple(reg for reg in self._regions if reg.contains(room_id))
            for room_id in self._rooms
        }
        self._room_index = RoomIndex(self._rooms)
        self._room_ids: tuple[tuple[str, ...], ...] = tuple(
            tuple(sorted(region.rooms)) for region in self._regions)
        self._shared_rooms: tuple[dict[int, frozenset[str]], ...] = tuple(
            {other.region_id: shared for other in self._regions
             if (shared := region.shared_rooms(other))}
            for region in self._regions)
        overlap = np.zeros((len(self._regions), len(self._regions)),
                           dtype=np.bool_)
        for region_id, shared_with in enumerate(self._shared_rooms):
            overlap[region_id, list(shared_with)] = True
        overlap.flags.writeable = False
        self._overlap = overlap

    # ------------------------------------------------------------------
    # Rooms
    # ------------------------------------------------------------------
    @property
    def rooms(self) -> Mapping[str, Room]:
        """All rooms keyed by room id."""
        return self._rooms

    def room(self, room_id: str) -> Room:
        """Look up a room; raise :class:`UnknownRoomError` if absent."""
        try:
            return self._rooms[room_id]
        except KeyError:
            raise UnknownRoomError(
                f"room {room_id!r} not in building {self.name!r}") from None

    def public_rooms(self) -> list[Room]:
        """All shared-facility rooms (paper's R^pb)."""
        return [r for r in self._rooms.values() if r.is_public]

    def private_rooms(self) -> list[Room]:
        """All restricted rooms (paper's R^pr)."""
        return [r for r in self._rooms.values() if r.is_private]

    # ------------------------------------------------------------------
    # Access points and regions
    # ------------------------------------------------------------------
    @property
    def access_points(self) -> Mapping[str, AccessPoint]:
        """All APs keyed by AP id."""
        return self._aps

    @property
    def regions(self) -> tuple[Region, ...]:
        """All regions, indexed by their dense ``region_id``."""
        return tuple(self._regions)

    def region(self, region_id: int) -> Region:
        """Look up a region by dense index."""
        if 0 <= region_id < len(self._regions):
            return self._regions[region_id]
        raise UnknownRegionError(
            f"region {region_id} not in building {self.name!r} "
            f"(has {len(self._regions)} regions)")

    def region_of_ap(self, ap_id: str) -> Region:
        """Return the unique region covered by AP ``ap_id``."""
        try:
            return self._region_by_ap[ap_id]
        except KeyError:
            raise UnknownRegionError(
                f"AP {ap_id!r} not in building {self.name!r}") from None

    def regions_of_room(self, room_id: str) -> tuple[Region, ...]:
        """All regions whose AP coverage includes ``room_id``.

        Regions overlap, so a room commonly belongs to several regions
        (paper example: room 2059 belongs to both g2 and g3).
        """
        if room_id not in self._rooms:
            raise UnknownRoomError(
                f"room {room_id!r} not in building {self.name!r}")
        return self._regions_of_room[room_id]

    def candidate_room_ids(self, region_id: int) -> tuple[str, ...]:
        """The fine-localization candidate set R(gx), as sorted room ids."""
        self.region(region_id)
        return self._room_ids[region_id]

    def region_overlap(self, region_id: int) -> np.ndarray:
        """Row ``region_id`` of the overlap table (read-only).

        Entry ``j`` is True when region ``j`` shares a room with region
        ``region_id`` (R(gx) ∩ R(gy) ≠ ∅, the neighbor test of §4.2).
        """
        self.region(region_id)
        return self._overlap[region_id]

    def shared_rooms_of(self, region_id: int) -> Mapping[int, frozenset[str]]:
        """R(gx) ∩ R(gy) for every region gy overlapping gx = ``region_id``.

        Keyed by gy's region id; regions sharing no room are absent.
        """
        self.region(region_id)
        return self._shared_rooms[region_id]

    @property
    def room_index(self) -> RoomIndex:
        """The building's room vocabulary (room id ↔ dense int code).

        The fine numeric core encodes candidate-room sets through this
        index; encodings are memoized per candidate tuple.
        """
        return self._room_index

    # ------------------------------------------------------------------
    def stats(self) -> dict[str, float]:
        """Summary statistics (room/AP counts, mean coverage, overlap)."""
        coverage = [len(reg) for reg in self._regions]
        overlapping = sum(
            1 for room_id in self._rooms
            if len(self._regions_of_room[room_id]) > 1)
        return {
            "rooms": len(self._rooms),
            "public_rooms": len(self.public_rooms()),
            "access_points": len(self._aps),
            "mean_rooms_per_ap": sum(coverage) / len(coverage),
            "max_rooms_per_ap": max(coverage),
            "rooms_in_multiple_regions": overlapping,
        }

    def __str__(self) -> str:
        return (f"Building {self.name!r}: {len(self._rooms)} rooms, "
                f"{len(self._aps)} APs")


class RegionCodeResolver:
    """Memoized AP-vocabulary-code → region-id resolution for one building.

    The single implementation behind every code-indexed region lookup
    (bootstrap visit counts, the modal-region count, neighbor
    snapshots): a lookup array the size of an AP vocabulary, grown
    lazily as the (append-only, table-wide) vocabulary grows, with each
    distinct code resolved through ``building.region_of_ap`` exactly
    once on first sight — so unknown APs never referenced by any event
    stay unresolved, and a lookup raises
    :class:`~repro.errors.UnknownRegionError` exactly when one of the
    codes it is given names an AP outside the building.
    """

    def __init__(self, building: Building) -> None:
        self._building = building
        self._vocab: "Sequence[str] | None" = None
        self._lookup: "np.ndarray | None" = None

    def regions_of(self, vocab: Sequence[str],
                   codes: np.ndarray) -> np.ndarray:
        """Region id per entry of ``codes`` (indices into ``vocab``)."""
        lookup = self._lookup
        if self._vocab is not vocab or lookup is None:
            lookup = np.full(len(vocab), -1, dtype=np.int64)
        elif lookup.size < len(vocab):  # vocabulary grew since caching
            lookup = np.concatenate(
                [lookup, np.full(len(vocab) - lookup.size, -1,
                                 dtype=np.int64)])
        regions = lookup[codes]
        unresolved = regions < 0
        if unresolved.any():
            for code in np.unique(codes[unresolved]):
                lookup[int(code)] = self._building.region_of_ap(
                    vocab[int(code)]).region_id
            regions = lookup[codes]
        # Cache vocab and lookup together only once fully resolved, so a
        # failed resolution can never pair a new vocab with stale codes.
        self._vocab = vocab
        self._lookup = lookup
        return regions
