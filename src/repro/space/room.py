"""Rooms: the finest localization granularity (paper Section 2).

Rooms are classified as *public* (shared facilities such as meeting rooms,
lounges, kitchens) or *private* (typically restricted to certain users,
such as a personal office).  The fine-grained localizer assigns different
room-affinity weights to each class.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import InvalidSpaceModelError


class RoomType(enum.Enum):
    """Whether a room is a shared facility or restricted to its owners."""

    PUBLIC = "public"
    PRIVATE = "private"


@dataclass(frozen=True, slots=True)
class Room:
    """A room within a building.

    Attributes:
        room_id: Unique identifier within the building (e.g. ``"2061"``).
        room_type: Public (shared) or private (owned).
        name: Optional human-readable label (e.g. ``"conference room"``).
        capacity: Soft capacity used by the simulator when scheduling
            semantic events into the room.
        position: Room-centre ``(x, y)`` metres; used by the simulator to
            weight which covering AP a device associates with.
    """

    room_id: str
    room_type: RoomType
    name: str = ""
    capacity: int = field(default=8)
    position: tuple[float, float] = field(default=(0.0, 0.0))

    def __post_init__(self) -> None:
        if not self.room_id:
            raise InvalidSpaceModelError("room_id must be a non-empty string")
        if self.capacity <= 0:
            raise InvalidSpaceModelError(
                f"capacity must be positive, got {self.capacity}")

    @property
    def is_public(self) -> bool:
        """True for shared facilities (meeting rooms, lounges, kitchens)."""
        return self.room_type is RoomType.PUBLIC

    @property
    def is_private(self) -> bool:
        """True for rooms restricted to certain users (personal offices)."""
        return self.room_type is RoomType.PRIVATE

    def __str__(self) -> str:
        label = f" ({self.name})" if self.name else ""
        return f"Room {self.room_id}{label} [{self.room_type.value}]"
