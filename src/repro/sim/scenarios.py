"""Scenario specifications: the five evaluation environments (§6.1, §6.3).

Each spec bundles a building blueprint, a population mix (profiles with
head-counts), and a recurring semantic-event program.  The mixes follow
the paper: e.g. the airport has 15 restaurant staff, 15 store staff, 20
airline representatives, 15 TSA staff and 200 passengers attending
security checks / dining / boarding / shopping events.  Head-counts are
scaled by ``population_scale`` so tests and benchmarks stay fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Sequence

from repro.errors import SimulationError
from repro.events.event import ConnectivityEvent
from repro.sim.profile import (
    PersonProfile,
    resident_profile,
    roamer_profile,
    staff_profile,
    visitor_profile,
)
from repro.sim.semantic_event import SemanticEvent
from repro.space.blueprints import (
    airport_blueprint,
    campus_blueprint,
    dbh_blueprint,
    mall_blueprint,
    office_blueprint,
    university_blueprint,
)
from repro.space.building import Building
from repro.system.query import LocationQuery
from repro.util.rng import make_rng
from repro.util.timeutil import SECONDS_PER_DAY, TimeInterval, hours, minutes


@dataclass(frozen=True, slots=True)
class PopulationGroup:
    """A profile with a head-count."""

    profile: PersonProfile
    count: int

    def __post_init__(self) -> None:
        if self.count < 0:
            raise SimulationError(f"count must be >= 0, got {self.count}")


@dataclass(frozen=True, slots=True)
class ScenarioSpec:
    """A complete simulation scenario.

    Attributes:
        name: Scenario label.
        building_factory: Zero-arg callable producing the building.
        groups: Population mix.
        event_program: Callable building the semantic events for a
            building (so room ids can be resolved against the blueprint).
        seed: Base RNG seed; every sub-generator derives from it.
    """

    name: str
    building_factory: Callable[[], Building]
    groups: tuple[PopulationGroup, ...]
    event_program: Callable[[Building], Sequence[SemanticEvent]]
    seed: int = 0

    def scaled(self, population_scale: float) -> "ScenarioSpec":
        """Copy with every head-count multiplied by ``population_scale``."""
        if population_scale <= 0:
            raise SimulationError(
                f"population_scale must be > 0, got {population_scale}")
        groups = tuple(
            PopulationGroup(g.profile,
                            max(1, round(g.count * population_scale)))
            for g in self.groups if g.count)
        return ScenarioSpec(name=self.name,
                            building_factory=self.building_factory,
                            groups=groups, event_program=self.event_program,
                            seed=self.seed)

    def total_population(self) -> int:
        """Head-count across all groups."""
        return sum(g.count for g in self.groups)

    # ------------------------------------------------------------------
    # Stock scenarios
    # ------------------------------------------------------------------
    @classmethod
    def dbh_like(cls, seed: int = 0, scale: float = 0.25,
                 population: int = 60) -> "ScenarioSpec":
        """The university-building deployment of §6.1 (synthetic stand-in).

        The population spans the paper's four predictability bands.
        Realized predictability (share of in-building time in the
        preferred room) undershoots the profile target by however much
        time semantic events consume, so each band's profile pairs a
        target with an attendance rate calibrated to land inside the
        band: faculty → [85,100), postdocs → [70,85), graduates →
        [55,70), affiliates → [40,55).
        """
        from dataclasses import replace

        quarter = max(1, population // 4)
        faculty = staff_profile("faculty", 0.93)
        postdoc = replace(resident_profile("postdoc", 0.8),
                          attendance_probability=0.4,
                          wander_probability=0.2)
        graduate = replace(resident_profile("graduate", 0.66),
                           attendance_probability=0.55,
                           wander_probability=0.35)
        affiliate = replace(roamer_profile("affiliate", 0.45),
                            attendance_probability=0.75,
                            wander_probability=0.6)
        groups = (
            PopulationGroup(faculty, quarter),
            PopulationGroup(postdoc, quarter),
            PopulationGroup(graduate, quarter),
            PopulationGroup(affiliate, population - 3 * quarter),
        )
        return cls(name="dbh", building_factory=lambda: dbh_blueprint(scale),
                   groups=groups, event_program=_university_events,
                   seed=seed)

    @classmethod
    def office(cls, seed: int = 0, population: int = 45) -> "ScenarioSpec":
        """Office building: the paper's most predictable environment."""
        groups = (
            PopulationGroup(staff_profile("receptionist", 0.93), 2),
            PopulationGroup(staff_profile("manager", 0.85),
                            max(1, population // 9)),
            PopulationGroup(resident_profile("employee", 0.8),
                            max(1, population * 5 // 9)),
            PopulationGroup(roamer_profile("janitorial", 0.45),
                            max(1, population // 9)),
            PopulationGroup(visitor_profile("visitor", 0.3),
                            max(1, population * 2 // 9)),
        )
        return cls(name="office", building_factory=office_blueprint,
                   groups=groups, event_program=_office_events, seed=seed)

    @classmethod
    def university(cls, seed: int = 0,
                   population: int = 60) -> "ScenarioSpec":
        """University building: classes dominate the event program."""
        groups = (
            PopulationGroup(staff_profile("staff", 0.9),
                            max(1, population // 10)),
            PopulationGroup(resident_profile("graduate", 0.78),
                            max(1, population // 5)),
            PopulationGroup(resident_profile("professor", 0.82),
                            max(1, population // 6)),
            PopulationGroup(roamer_profile("undergraduate", 0.55),
                            max(1, population * 2 // 5)),
            PopulationGroup(visitor_profile("visitor", 0.28),
                            max(1, population // 10)),
        )
        return cls(name="university", building_factory=university_blueprint,
                   groups=groups, event_program=_university_events,
                   seed=seed)

    @classmethod
    def mall(cls, seed: int = 0, population: int = 60) -> "ScenarioSpec":
        """Mall: mostly unpredictable customers plus store staff."""
        groups = (
            PopulationGroup(staff_profile("staff", 0.88),
                            max(1, population // 8)),
            PopulationGroup(resident_profile("salesman_restaurant", 0.75),
                            max(1, population // 8)),
            PopulationGroup(resident_profile("salesman_shop", 0.72),
                            max(1, population // 6)),
            PopulationGroup(roamer_profile("regular_customer", 0.5),
                            max(1, population // 4)),
            PopulationGroup(visitor_profile("random_customer", 0.3),
                            max(1, population // 3)),
        )
        return cls(name="mall", building_factory=mall_blueprint,
                   groups=groups, event_program=_mall_events, seed=seed)

    @classmethod
    def airport(cls, seed: int = 0, population: int = 80) -> "ScenarioSpec":
        """Airport terminal per the paper's Santa Ana scenario."""
        # Paper mix (265 heads) shrunk proportionally to ``population``.
        base = {"restaurant_staff": 15, "store_staff": 15,
                "airline_representative": 20, "tsa": 15, "passenger": 200}
        factor = population / sum(base.values())
        groups = (
            PopulationGroup(resident_profile("restaurant_staff", 0.8),
                            max(1, round(base["restaurant_staff"] * factor))),
            PopulationGroup(resident_profile("store_staff", 0.78),
                            max(1, round(base["store_staff"] * factor))),
            PopulationGroup(resident_profile("airline_representative", 0.7),
                            max(1, round(base["airline_representative"]
                                         * factor))),
            PopulationGroup(staff_profile("tsa", 0.85),
                            max(1, round(base["tsa"] * factor))),
            PopulationGroup(visitor_profile("passenger", 0.3),
                            max(1, round(base["passenger"] * factor))),
        )
        return cls(name="airport", building_factory=airport_blueprint,
                   groups=groups, event_program=_airport_events, seed=seed)

    @classmethod
    def campus(cls, seed: int = 0, population: int = 48,
               buildings: int = 3) -> "ScenarioSpec":
        """A multi-building campus: the cluster layer's native workload.

        One space model holds ``buildings`` corridor buildings with
        disjoint per-building AP vocabularies (see
        :func:`~repro.space.blueprints.campus_blueprint`).  Most of the
        population is building-resident — their preferred private
        offices spread across the buildings, so their traffic stays on
        one AP vocabulary — while a commuter tail (high wander, campus
        events in building 0 open to everyone) keeps crossing building
        boundaries, which joins the whole campus into one co-presence
        component (compare :func:`isolated_campus_dataset`).
        """
        if buildings < 1:
            raise SimulationError(
                f"campus needs at least 1 building, got {buildings}")
        from dataclasses import replace

        staff = staff_profile("staff", 0.9)
        resident = resident_profile("resident", 0.78)
        commuter = replace(
            roamer_profile("commuter", 0.45),
            attendance_probability=0.85, wander_probability=0.7)
        visitor = visitor_profile("visitor", 0.3)
        groups = (
            PopulationGroup(staff, max(1, population // 8)),
            PopulationGroup(resident, max(1, population * 4 // 8)),
            PopulationGroup(commuter, max(1, population * 2 // 8)),
            PopulationGroup(visitor, max(1, population // 8)),
        )
        return cls(name=f"campus{buildings}",
                   building_factory=lambda: campus_blueprint(buildings),
                   groups=groups, event_program=_campus_events, seed=seed)

    @classmethod
    def by_name(cls, name: str, seed: int = 0) -> "ScenarioSpec":
        """Look up a stock scenario by name."""
        factory = {
            "dbh": cls.dbh_like, "office": cls.office,
            "university": cls.university, "mall": cls.mall,
            "airport": cls.airport, "campus": cls.campus,
        }.get(name)
        if factory is None:
            raise SimulationError(f"unknown scenario {name!r}")
        return factory(seed=seed)


# ---------------------------------------------------------------------------
# Event programs
# ---------------------------------------------------------------------------

def _pick_public(building: Building, count: int) -> list[str]:
    rooms = sorted(r.room_id for r in building.public_rooms())
    if not rooms:
        rooms = sorted(building.rooms)
    step = max(1, len(rooms) // max(1, count))
    return rooms[::step][:count]


def _university_events(building: Building) -> list[SemanticEvent]:
    """Classes, seminars and lunches on weekdays."""
    rooms = _pick_public(building, 6)
    events: list[SemanticEvent] = []
    weekdays = (0, 1, 2, 3, 4)
    for i, room in enumerate(rooms):
        events.append(SemanticEvent(
            event_id=f"class-{i}", room_id=room,
            start_time=hours(9 + (i % 4) * 2), duration=hours(1.5),
            days=weekdays, capacity=25,
            eligible_profiles=("undergraduate", "graduate", "professor",
                               "affiliate")))
    if rooms:
        events.append(SemanticEvent(
            event_id="seminar", room_id=rooms[0], start_time=hours(15),
            duration=hours(1), days=(1, 3), capacity=30,
            eligible_profiles=("graduate", "professor", "faculty",
                               "staff")))
        events.append(SemanticEvent(
            event_id="lunch", room_id=rooms[-1], start_time=hours(12),
            duration=minutes(45), days=weekdays, capacity=60))
    return events


def _office_events(building: Building) -> list[SemanticEvent]:
    """Stand-ups, team meetings and lunches."""
    rooms = _pick_public(building, 4)
    events: list[SemanticEvent] = []
    weekdays = (0, 1, 2, 3, 4)
    for i, room in enumerate(rooms):
        events.append(SemanticEvent(
            event_id=f"meeting-{i}", room_id=room,
            start_time=hours(10 + (i % 3) * 2), duration=hours(1),
            days=weekdays, capacity=12,
            eligible_profiles=("employee", "manager")))
    if rooms:
        events.append(SemanticEvent(
            event_id="lunch", room_id=rooms[-1], start_time=hours(12),
            duration=minutes(45), days=weekdays, capacity=50))
    return events


def _mall_events(building: Building) -> list[SemanticEvent]:
    """Shifts and dining windows."""
    rooms = _pick_public(building, 5)
    events: list[SemanticEvent] = []
    alldays = tuple(range(7))
    for i, room in enumerate(rooms[:-1]):
        events.append(SemanticEvent(
            event_id=f"shift-{i}", room_id=room, start_time=hours(10),
            duration=hours(6), days=alldays, capacity=6,
            eligible_profiles=("staff", "salesman_restaurant",
                               "salesman_shop")))
    if rooms:
        events.append(SemanticEvent(
            event_id="foodcourt", room_id=rooms[-1], start_time=hours(12),
            duration=hours(1.5), days=alldays, capacity=80))
    return events


def _campus_events(building: Building) -> list[SemanticEvent]:
    """Per-building routines plus campus-wide gatherings in building 0.

    The in-building meetings keep residents on their own AP vocabulary;
    the campus events (open to every profile, generous capacity) pull
    attendees — commuters above all — across building boundaries.
    """
    by_building: dict[str, list[str]] = {}
    for room_id in sorted(r.room_id for r in building.public_rooms()):
        prefix, _, rest = room_id.partition("-")
        if rest:
            by_building.setdefault(prefix, []).append(room_id)
    if not by_building:  # non-campus building: fall back to one program
        return _office_events(building)
    events: list[SemanticEvent] = []
    weekdays = (0, 1, 2, 3, 4)
    for index, (key, rooms) in enumerate(sorted(by_building.items())):
        events.append(SemanticEvent(
            event_id=f"{key}-meeting", room_id=rooms[0],
            start_time=hours(9 + (index % 3)), duration=hours(1),
            days=weekdays, capacity=20,
            eligible_profiles=("staff", "resident")))
        events.append(SemanticEvent(
            event_id=f"{key}-lunch", room_id=rooms[-1],
            start_time=hours(12), duration=minutes(45), days=weekdays,
            capacity=40))
    hub = sorted(by_building)[0]
    events.append(SemanticEvent(
        event_id="campus-seminar", room_id=by_building[hub][0],
        start_time=hours(15), duration=hours(1.5), days=(1, 3),
        capacity=120))
    events.append(SemanticEvent(
        event_id="campus-social", room_id=by_building[hub][-1],
        start_time=hours(17), duration=hours(1), days=(4,),
        capacity=120))
    return events


# ---------------------------------------------------------------------------
# Composed datasets
# ---------------------------------------------------------------------------

def isolated_campus_dataset(buildings: int = 3, population: int = 24,
                            days: int = 3, seed: int = 17):
    """A campus dataset whose buildings never exchange devices.

    The stock :meth:`ScenarioSpec.campus` population genuinely crosses
    building boundaries (commuters, campus-wide gatherings, wandering
    over the merged room pool), which collapses the potential
    co-presence graph into one connected component, so component
    routing puts every device on a single shard.  This composer builds
    the complementary workload: each building's population is
    simulated *separately* (its own rooms, its own wander pool) and the
    runs are merged onto one campus space model with per-building id
    prefixes, so the resulting dataset has exactly ``buildings``
    affinity components — the shape the cluster-caching distribution
    tests and benchmark need.

    Returns:
        A :class:`~repro.sim.dataset.Dataset` over
        :func:`~repro.space.blueprints.campus_blueprint` with device
        MACs prefixed ``b<k>:`` by home building.
    """
    # Local imports: the simulator module imports this one.
    from dataclasses import replace

    from repro.events.table import EventTable
    from repro.events.validity import DeltaEstimator
    from repro.sim.dataset import Dataset
    from repro.sim.schedule import DayPlan, Visit
    from repro.sim.simulator import Simulator
    from repro.space.metadata import SpaceMetadata

    if buildings < 1:
        raise SimulationError(
            f"isolated campus needs at least 1 building, got {buildings}")
    campus = campus_blueprint(buildings)
    per_building = max(2, population // buildings)
    people = []
    plans = {}
    events = []
    for index in range(buildings):
        # A 1-building campus spec: same profiles and event program,
        # ids all prefixed "b0-" for rooms/APs.
        spec = ScenarioSpec.campus(seed=seed + index,
                                   population=per_building, buildings=1)
        run = Simulator(spec).run(days=days)

        def remap(identifier: str, index: int = index) -> str:
            return f"b{index}-" + identifier.removeprefix("b0-")

        mac_prefix = f"b{index}:"
        for person in run.people:
            people.append(replace(
                person,
                person_id=mac_prefix + person.person_id,
                mac=mac_prefix + person.mac,
                preferred_room=None if person.preferred_room is None
                else remap(person.preferred_room)))
        for person_id, day_plans in run.plans.items():
            plans[mac_prefix + person_id] = [
                DayPlan(person_id=mac_prefix + person_id, day=plan.day,
                        visits=[Visit(room_id=remap(visit.room_id),
                                      interval=visit.interval,
                                      reason=visit.reason)
                                for visit in plan.visits])
                for plan in day_plans]
        for mac in run.table.macs():
            events.extend(
                ConnectivityEvent(timestamp=event.timestamp,
                                  mac=mac_prefix + event.mac,
                                  ap_id=remap(event.ap_id))
                for event in run.table.log(mac).events())
    table = EventTable.from_events(sorted(events))
    for person in people:
        table.registry.intern(person.mac)
    DeltaEstimator().fit_table(table)
    metadata = SpaceMetadata(campus)
    for person in people:
        if person.preferred_room is not None:
            metadata.set_preferred_rooms(person.mac,
                                         [person.preferred_room])
    return Dataset(building=campus, metadata=metadata, table=table,
                   people=people, plans=plans,
                   span=TimeInterval(0.0, days * SECONDS_PER_DAY))


# ---------------------------------------------------------------------------
# Streaming workload
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class StreamingBatch:
    """One tick of a streaming day: an ingest batch then a query burst.

    Attributes:
        index: Tick ordinal within the day.
        interval: The time slice whose events arrive in this tick.
        ingest: Events "received from the controllers" during the slice.
        queries: The burst asked right after the tick's ingest; only
            devices already observed by then are queried, and most
            timestamps fall inside the freshly ingested slice so answers
            demonstrably depend on the new data.
    """

    index: int
    interval: TimeInterval
    ingest: tuple[ConnectivityEvent, ...]
    queries: tuple[LocationQuery, ...]


@dataclass(frozen=True, slots=True)
class StreamingWorkload:
    """A live-serving day: warm-up history plus interleaved ticks.

    The canonical event stream is ``warmup`` followed by each batch's
    ``ingest`` in order — cold-rebuild oracles must consume exactly that
    stream (see :meth:`events_through`) to be comparable with a system
    that ingested it incrementally.
    """

    warmup: tuple[ConnectivityEvent, ...]
    batches: tuple[StreamingBatch, ...]

    def events_through(self, batch_index: int) -> list[ConnectivityEvent]:
        """The full stream up to and including batch ``batch_index``."""
        out = list(self.warmup)
        for batch in self.batches[: batch_index + 1]:
            out.extend(batch.ingest)
        return out

    @property
    def event_count(self) -> int:
        """Total events across warm-up and every tick."""
        return len(self.warmup) + sum(len(b.ingest) for b in self.batches)

    @property
    def query_count(self) -> int:
        """Total queries across every burst."""
        return sum(len(b.queries) for b in self.batches)


def streaming_day_workload(dataset, batches: int = 12,
                           queries_per_burst: int = 16,
                           seed: int = 0) -> StreamingWorkload:
    """Carve a simulated dataset into a streaming day (ingest ⇄ query).

    All but the last simulated day become the warm-up history; the final
    day's events are replayed as ``batches`` equal time slices, each
    followed by a deterministic query burst.  Burst queries prefer
    devices active in the freshly ingested slice (two thirds, when
    available) and time points inside it, with the rest sampling the
    already-seen population across the day so far — the mix a live
    tracking dashboard would produce.

    Args:
        dataset: A :class:`~repro.sim.dataset.Dataset` spanning ≥ 2 days.
        batches: Ticks the final day is sliced into.
        queries_per_burst: Queries per burst.
        seed: Burst-sampling seed (the event stream itself is fixed).
    """
    if batches < 1:
        raise SimulationError(f"batches must be >= 1, got {batches}")
    if queries_per_burst < 1:
        raise SimulationError(
            f"queries_per_burst must be >= 1, got {queries_per_burst}")
    span = dataset.span
    if span.duration < 2 * SECONDS_PER_DAY:
        raise SimulationError(
            "streaming workload needs >= 2 simulated days "
            f"(got {span.duration / SECONDS_PER_DAY:.1f})")
    stream = sorted(
        (event for mac in dataset.table.macs()
         for event in dataset.table.events_of(mac)),
        key=lambda e: (e.timestamp, e.mac, e.ap_id))
    cut = span.end - SECONDS_PER_DAY
    warmup = tuple(e for e in stream if e.timestamp < cut)
    day = [e for e in stream if e.timestamp >= cut]
    if not warmup or not day:
        raise SimulationError(
            "dataset has no events on one side of the streaming cut; "
            "simulate more days or a denser population")

    rng = make_rng(seed)
    seen = sorted({e.mac for e in warmup})
    width = (span.end - cut) / batches
    out: list[StreamingBatch] = []
    for index in range(batches):
        lo = cut + index * width
        hi = span.end if index == batches - 1 else cut + (index + 1) * width
        ingest = tuple(e for e in day if lo <= e.timestamp < hi)
        fresh = sorted({e.mac for e in ingest})
        seen = sorted(set(seen).union(fresh))
        queries = []
        for _ in range(queries_per_burst):
            if fresh and rng.random() < 2 / 3:
                mac = fresh[int(rng.integers(len(fresh)))]
                timestamp = float(rng.uniform(lo, hi))
            else:
                mac = seen[int(rng.integers(len(seen)))]
                timestamp = float(rng.uniform(cut, hi))
            queries.append(LocationQuery(mac=mac, timestamp=timestamp))
        out.append(StreamingBatch(index=index,
                                  interval=TimeInterval(lo, hi),
                                  ingest=ingest, queries=tuple(queries)))
    return StreamingWorkload(warmup=warmup, batches=tuple(out))


# ---------------------------------------------------------------------------
# Serving load generators (for the async gateway)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ArrivalSchedule:
    """An open-loop load schedule: queries with submission offsets.

    Open loop means the submission times are fixed in advance — they do
    *not* wait for answers — so the offered rate keeps pressing even
    when the server falls behind.  This is the generator that drives a
    gateway past saturation and exposes whether admission control sheds
    load or lets latency grow without bound.

    Attributes:
        offsets: Seconds from load start at which each query is
            submitted (non-decreasing).
        queries: The query submitted at each offset.
    """

    offsets: tuple[float, ...]
    queries: tuple[LocationQuery, ...]

    def __post_init__(self) -> None:
        if len(self.offsets) != len(self.queries):
            raise SimulationError(
                f"offsets and queries must align, got {len(self.offsets)} "
                f"vs {len(self.queries)}")

    @property
    def duration(self) -> float:
        """Seconds from load start to the last submission."""
        return self.offsets[-1] if self.offsets else 0.0

    @property
    def offered_rate(self) -> float:
        """Mean submissions per second over the schedule."""
        return len(self.queries) / max(self.duration, 1e-12)


def open_loop_arrivals(dataset, rate_per_second: float, count: int,
                       seed: int = 0) -> ArrivalSchedule:
    """Poisson arrivals at a fixed offered rate (open-loop load).

    Inter-arrival gaps are exponential with mean ``1/rate_per_second``
    — the memoryless stream a population of independent users offers —
    and each arrival asks a uniform (device, time) query over the whole
    dataset, the paper's generated-query-set distribution.
    """
    if rate_per_second <= 0:
        raise SimulationError(
            f"rate_per_second must be positive, got {rate_per_second}")
    if count < 1:
        raise SimulationError(f"count must be >= 1, got {count}")
    rng = make_rng(seed)
    macs = dataset.macs()
    if not macs:
        raise SimulationError("dataset has no devices to query")
    span = dataset.span
    gaps = rng.exponential(1.0 / rate_per_second, size=count)
    offsets = tuple(float(offset) for offset in gaps.cumsum())
    queries = tuple(
        LocationQuery(mac=macs[int(rng.integers(len(macs)))],
                      timestamp=float(rng.uniform(span.start, span.end)))
        for _ in range(count))
    return ArrivalSchedule(offsets=offsets, queries=queries)


def closed_loop_clients(dataset, clients: int, queries_per_client: int,
                        seed: int = 0) -> list[list[LocationQuery]]:
    """Per-client query streams (closed-loop load).

    Closed loop means each client submits its next query only after the
    previous answer returns, so at most ``clients`` queries are ever in
    flight and the system serves at its natural throughput — the
    generator for saturation-throughput and coalescing measurements
    (more concurrent clients ⇒ fuller batching windows).
    """
    if clients < 1:
        raise SimulationError(f"clients must be >= 1, got {clients}")
    if queries_per_client < 1:
        raise SimulationError(
            f"queries_per_client must be >= 1, got {queries_per_client}")
    rng = make_rng(seed)
    macs = dataset.macs()
    if not macs:
        raise SimulationError("dataset has no devices to query")
    span = dataset.span
    return [
        [LocationQuery(mac=macs[int(rng.integers(len(macs)))],
                       timestamp=float(rng.uniform(span.start, span.end)))
         for _ in range(queries_per_client)]
        for _ in range(clients)]


def _airport_events(building: Building) -> list[SemanticEvent]:
    """Security checks, dining, boarding and shopping (paper §6.3)."""
    rooms = _pick_public(building, 6)
    events: list[SemanticEvent] = []
    alldays = tuple(range(7))
    if len(rooms) >= 4:
        events.append(SemanticEvent(
            event_id="security-am", room_id=rooms[0], start_time=hours(6),
            duration=hours(4), days=alldays, capacity=10,
            eligible_profiles=("tsa",)))
        events.append(SemanticEvent(
            event_id="security-pm", room_id=rooms[0], start_time=hours(12),
            duration=hours(6), days=alldays, capacity=10,
            eligible_profiles=("tsa",)))
        events.append(SemanticEvent(
            event_id="dining", room_id=rooms[1], start_time=hours(11.5),
            duration=hours(2), days=alldays, capacity=60,
            eligible_profiles=("passenger", "restaurant_staff")))
        for i, hour in enumerate((9, 13, 17)):
            events.append(SemanticEvent(
                event_id=f"boarding-{i}", room_id=rooms[2],
                start_time=hours(hour), duration=hours(1.2), days=alldays,
                capacity=50,
                eligible_profiles=("passenger", "airline_representative")))
        events.append(SemanticEvent(
            event_id="shopping", room_id=rooms[3], start_time=hours(14),
            duration=hours(2), days=alldays, capacity=40,
            eligible_profiles=("passenger", "store_staff")))
    return events
