"""Regions: the middle localization granularity (paper Section 2).

A region is the area covered by the network connectivity of exactly one
WiFi access point; there is a one-to-one mapping between APs and regions
(``|G| = |WAP|``).  Regions can and usually do overlap, so a room may
belong to several regions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InvalidSpaceModelError


@dataclass(frozen=True, slots=True)
class Region:
    """The set of rooms covered by one access point.

    Attributes:
        region_id: Dense integer index of the region (0-based); stable for
            the lifetime of a :class:`~repro.space.building.Building` and
            used as the class label by the coarse-grained region classifier.
        ap_id: The access point defining this region.
        rooms: Frozen set of room ids inside the region.
    """

    region_id: int
    ap_id: str
    rooms: frozenset[str]

    def __post_init__(self) -> None:
        if self.region_id < 0:
            raise InvalidSpaceModelError(
                f"region_id must be >= 0, got {self.region_id}")
        if not self.rooms:
            raise InvalidSpaceModelError(
                f"region {self.region_id} has no rooms")

    def contains(self, room_id: str) -> bool:
        """Whether ``room_id`` belongs to this region."""
        return room_id in self.rooms

    def shared_rooms(self, other: "Region") -> frozenset[str]:
        """Rooms belonging to both regions (the R(gx) ∩ R(gy) of §4)."""
        return self.rooms & other.rooms

    def __len__(self) -> int:
        return len(self.rooms)

    def __str__(self) -> str:
        return f"Region g{self.region_id} ({self.ap_id}, {len(self.rooms)} rooms)"
