"""Parametric building blueprints for the evaluation scenarios.

The paper evaluates on the Donald Bren Hall building (64 APs, 300+ rooms,
~11 rooms covered per AP, overlapping coverage) and on four simulated
environments built from real blueprints (airport, mall, university,
office).  We generate structurally equivalent buildings on a corridor grid:
rooms are laid out along corridors, APs are placed at regular intervals,
and each AP covers the rooms within its radio radius — which makes
neighbouring AP regions overlap exactly as in the paper's Fig. 1.

All generators are deterministic given their arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import SpaceModelError
from repro.space.builder import BuildingBuilder
from repro.space.building import Building


@dataclass(frozen=True, slots=True)
class GridSpec:
    """Parameters of a corridor-grid building.

    Attributes:
        name: Building name.
        rooms: Total number of rooms to generate.
        access_points: Number of APs to place along the corridor.
        public_fraction: Fraction of rooms that are public facilities.
        room_width: Room frontage along the corridor, in metres.
        coverage_radius: AP radio radius in metres; a room is covered when
            its centre is within this radius of the AP.
        room_prefix: Prefix for generated room ids (DBH uses floor numbers).
    """

    name: str
    rooms: int
    access_points: int
    public_fraction: float = 0.2
    room_width: float = 4.0
    coverage_radius: float = 12.0
    room_prefix: str = "2"

    def __post_init__(self) -> None:
        if self.rooms < 2:
            raise SpaceModelError("grid building needs at least 2 rooms")
        if self.access_points < 1:
            raise SpaceModelError("grid building needs at least 1 AP")
        if not 0.0 <= self.public_fraction <= 1.0:
            raise SpaceModelError("public_fraction must be in [0, 1]")


def _emit_grid(builder: BuildingBuilder, spec: GridSpec, *,
               id_prefix: str = "",
               origin: tuple[float, float] = (0.0, 0.0)) -> None:
    """Emit one corridor grid into ``builder``.

    ``id_prefix`` namespaces room and AP ids and ``origin`` offsets every
    position, so several grids can coexist in one building (a campus).
    AP coverage is computed against this grid's rooms only — each
    sub-building keeps its own AP vocabulary by construction.
    """
    ox, oy = origin
    positions: dict[str, tuple[float, float]] = {}

    for i in range(spec.rooms):
        room_id = f"{id_prefix}{spec.room_prefix}{i:03d}"
        side = 1.0 if i % 2 == 0 else -1.0
        x = (i // 2) * spec.room_width + spec.room_width / 2.0
        y = side * 5.0
        positions[room_id] = (x, y)
        # Bresenham-style spread: exactly round(n·f) public rooms, evenly
        # interleaved, for any fraction f.
        f = spec.public_fraction
        is_public = int((i + 1) * f) > int(i * f)
        if is_public:
            builder.add_public_room(room_id, name=f"shared-{i}", capacity=30,
                                    position=(x + ox, y + oy))
        else:
            builder.add_private_room(room_id, name=f"office-{i}", capacity=4,
                                     position=(x + ox, y + oy))

    corridor_length = (spec.rooms // 2 + 1) * spec.room_width
    for j in range(spec.access_points):
        # Spread APs evenly along the corridor spine (y = 0).
        frac = (j + 0.5) / spec.access_points
        ap_x = frac * corridor_length
        covered = [
            room_id for room_id, (x, y) in positions.items()
            if math.hypot(x - ap_x, y) <= spec.coverage_radius
        ]
        if not covered:
            # Radius too small for the room spacing: snap to nearest room so
            # every AP defines a non-empty region.
            nearest = min(positions, key=lambda r: abs(positions[r][0] - ap_x))
            covered = [nearest]
        builder.add_access_point(f"{id_prefix}wap{j + 1}", covered,
                                 position=(ap_x + ox, oy))


def grid_building(spec: GridSpec) -> Building:
    """Generate a two-sided corridor building per ``spec``.

    Rooms alternate sides of a straight corridor; every k-th room is public
    (k chosen from ``public_fraction``).  APs sit on the corridor spine at
    even spacing; coverage = rooms whose centre falls within
    ``coverage_radius``, so adjacent regions overlap.
    """
    builder = BuildingBuilder(spec.name)
    _emit_grid(builder, spec)
    return builder.build()


def dbh_blueprint(scale: float = 0.25) -> Building:
    """A Donald Bren Hall-like building (paper §6.1), scaled by ``scale``.

    At ``scale=1.0`` this produces 64 APs and ~300 rooms with an average
    coverage of ~11 rooms per AP, matching the paper's deployment.  The
    default quarter scale (16 APs, 76 rooms) keeps tests and benchmarks
    fast while preserving coverage overlap and rooms-per-AP statistics.
    """
    if not 0.01 <= scale <= 2.0:
        raise SpaceModelError(f"scale must be in [0.01, 2], got {scale}")
    rooms = max(8, round(304 * scale))
    aps = max(2, round(64 * scale))
    return grid_building(GridSpec(
        name=f"DBH-like(x{scale:g})",
        rooms=rooms,
        access_points=aps,
        public_fraction=0.18,
        room_width=4.0,
        coverage_radius=12.0,
        room_prefix="2",
    ))


def office_blueprint() -> Building:
    """An office building: mostly private offices, few shared rooms."""
    return grid_building(GridSpec(
        name="office", rooms=48, access_points=10, public_fraction=0.15,
        coverage_radius=12.0, room_prefix="O",
    ))


def university_blueprint() -> Building:
    """A university building: classrooms (public) mixed with offices."""
    return grid_building(GridSpec(
        name="university", rooms=64, access_points=12, public_fraction=0.3,
        coverage_radius=12.0, room_prefix="U",
    ))


def mall_blueprint() -> Building:
    """A mall: predominantly public storefronts and food courts."""
    return grid_building(GridSpec(
        name="mall", rooms=56, access_points=10, public_fraction=0.7,
        coverage_radius=13.0, room_prefix="M",
    ))


def airport_blueprint() -> Building:
    """An airport terminal: gates/shops/restaurants, almost all public.

    Modeled on the paper's Santa Ana airport scenario: large open public
    areas (gates, security, dining) plus a few staff-only rooms.
    """
    return grid_building(GridSpec(
        name="airport", rooms=40, access_points=8, public_fraction=0.8,
        room_width=6.0, coverage_radius=18.0, room_prefix="A",
    ))


def campus_blueprint(buildings: int = 3, rooms_per_building: int = 16,
                     aps_per_building: int = 4,
                     public_fraction: float = 0.25) -> Building:
    """A multi-building campus as one space model.

    Each sub-building is an independent corridor grid whose room and AP
    ids carry a ``b<k>-`` prefix; the grids sit far apart, so every AP
    covers rooms of its own building only — per-building AP
    vocabularies.  Movement between buildings is entirely possible (one
    space graph), it just never shares an AP region, exactly like a
    real campus WLAN.
    """
    if buildings < 1:
        raise SpaceModelError(
            f"campus needs at least 1 building, got {buildings}")
    builder = BuildingBuilder(f"campus({buildings})")
    for k in range(buildings):
        _emit_grid(
            builder,
            GridSpec(name=f"campus-b{k}", rooms=rooms_per_building,
                     access_points=aps_per_building,
                     public_fraction=public_fraction, room_prefix="r"),
            id_prefix=f"b{k}-",
            # Far enough apart that no coverage radius could ever bridge
            # two buildings, whatever the grid parameters.
            origin=(0.0, k * 500.0))
    return builder.build()
