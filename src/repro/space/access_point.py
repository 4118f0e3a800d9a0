"""WiFi access points.

Each AP defines one *region*: the set of rooms its network coverage
reaches.  The paper's deployment averaged 11 rooms per AP, with coverage
areas that overlap between neighbouring APs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import InvalidSpaceModelError


@dataclass(frozen=True, slots=True)
class AccessPoint:
    """A WiFi access point and the rooms its coverage reaches.

    Attributes:
        ap_id: Unique identifier, e.g. ``"wap3"``.
        covered_rooms: Room ids inside this AP's network coverage; order is
            irrelevant, duplicates are rejected.
        position: Optional ``(x, y)`` metres, used by blueprint generators.
    """

    ap_id: str
    covered_rooms: frozenset[str]
    position: tuple[float, float] = field(default=(0.0, 0.0))

    def __post_init__(self) -> None:
        if not self.ap_id:
            raise InvalidSpaceModelError("ap_id must be a non-empty string")
        if not self.covered_rooms:
            raise InvalidSpaceModelError(
                f"AP {self.ap_id} must cover at least one room")

    @staticmethod
    def create(ap_id: str, covered_rooms: "list[str] | set[str] | frozenset[str]",
               position: tuple[float, float] = (0.0, 0.0)) -> "AccessPoint":
        """Build an AP from any room-id collection, checking duplicates."""
        rooms = list(covered_rooms)
        unique = frozenset(rooms)
        if len(unique) != len(rooms):
            raise InvalidSpaceModelError(
                f"AP {ap_id} has duplicate rooms in coverage")
        return AccessPoint(ap_id=ap_id, covered_rooms=unique, position=position)

    def covers(self, room_id: str) -> bool:
        """Whether ``room_id`` is inside this AP's coverage."""
        return room_id in self.covered_rooms

    def __str__(self) -> str:
        return f"AP {self.ap_id} covering {len(self.covered_rooms)} rooms"
