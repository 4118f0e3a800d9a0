"""Space model: buildings, regions (AP coverage), rooms, and metadata.

Implements the three-granularity space model of LOCATER Section 2:
building (inside/outside), region (the set of rooms covered by one WiFi
access point; regions may overlap), and room (public or private), plus the
metadata the cleaning algorithms rely on (AP coverage lists, room types,
room owners / preferred rooms).

Every building also owns a :class:`RoomIndex` — an immutable vocabulary
interning room ids into dense integer codes (mirroring the event table's
AP vocabulary).  The fine-grained numeric core operates on these codes:
candidate sets become int32 arrays, affinities become float64 vectors
aligned to them, and the string room ids only reappear at the public API
boundary.
"""

from repro.space.access_point import AccessPoint
from repro.space.building import Building
from repro.space.builder import BuildingBuilder
from repro.space.metadata import SpaceMetadata
from repro.space.region import Region
from repro.space.room import Room, RoomType
from repro.space.room_index import RoomIndex
from repro.space.blueprints import (
    airport_blueprint,
    campus_blueprint,
    dbh_blueprint,
    grid_building,
    mall_blueprint,
    office_blueprint,
    university_blueprint,
)

__all__ = [
    "AccessPoint",
    "Building",
    "BuildingBuilder",
    "Region",
    "Room",
    "RoomIndex",
    "RoomType",
    "SpaceMetadata",
    "airport_blueprint",
    "campus_blueprint",
    "dbh_blueprint",
    "grid_building",
    "mall_blueprint",
    "office_blueprint",
    "university_blueprint",
]
