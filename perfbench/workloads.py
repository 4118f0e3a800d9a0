"""The benchmark's three single-process workloads.

* ``cold_batch`` — offline occupancy analytics: the HVAC job of
  :mod:`repro.analytics.occupancy` on a cold lone ``Locater``; one
  ``locate_batch`` of every device at every 2-hour slot.  Coarse
  training (Algorithm 1) is about half the work.
* ``live_day`` — the only workload that writes: a lone ``Locater``
  (caching off, ``InMemoryStorage``) in a ``StreamingSession`` replays a
  final day as 120 ingest ticks, each followed by a 16-query burst.
* ``gateway`` — warm read-only traffic through ``AsyncGateway`` over a
  default two-shard in-process ``ShardedLocater``: alternating rounds of
  a Poisson open loop at 50 qps and a 16-client closed loop.

Each workload simulates one fixed world (``WORLD_SEED``) and draws its
queries from the run's seed: different simulated worlds differ in event
volume and density by more than any bound a regression check could
use, while different query draws over one world do not.  Each measures
through the public entry points only (library defaults, plus
``journal=True`` on the gateway), checks its answers outside the timed
phase and returns a :class:`Measurement`.  A traced run measures a
warm-up, an untraced and a traced unit of the same work instead of
repeating units for ``seconds``.

The shared host's speed swings by up to 1.8x, in spells from under a
second to minutes, so every timed piece of work (a set-up, a cold batch,
a live tick, a gateway round) runs between two runs of a fixed spin that
uses no repro code, and its time is also reported scaled to the speed at
which the spin takes ``REFERENCE_SPIN_NS`` (see :func:`speed`).  A run
records its samples per unit of work (cold batch, day replay, gateway
round) both as measured and scaled; each timed end-to-end metric is the
median over the units of the unit's scaled value.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import statistics
import time
from collections import Counter
from collections.abc import AsyncIterator, Awaitable, Iterator, Sequence
from contextlib import asynccontextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

from perfbench.tracing import Tracer
from repro.analytics.occupancy import occupancy_series
from repro.cluster import ShardedLocater
from repro.errors import GatewayOverloadedError, ReproError
from repro.eval.metrics import PrecisionCounts
from repro.events.table import EventTable
from repro.events.validity import DeltaEstimator
from repro.serve import AsyncGateway, WindowRecord
from repro.sim.scenarios import (
    ScenarioSpec,
    isolated_campus_dataset,
    streaming_day_workload,
)
from repro.sim.simulator import Simulator
from repro.system.config import LocaterConfig
from repro.system.ingestion import IngestionEngine
from repro.system.locater import Locater, LocationAnswer
from repro.system.planner import plan_queries
from repro.system.query import LocationQuery
from repro.system.storage import InMemoryStorage
from repro.system.streaming import StreamingSession
from repro.util.timeutil import SECONDS_PER_DAY, TimeInterval

#: Seed of the simulated world every run uses; ``--seed`` draws queries.
WORLD_SEED = 7
#: Devices in every workload's population.
POPULATION = 96
#: cold_batch: simulated days, occupancy slot width, the seed's largest
#: grid shift, and set-ups timed before each batch (each takes ~0.1 s;
#: the median over the run's batches is setup_s).
COLD_DAYS = 14
SLOT_SECONDS = 7200.0
GRID_JITTER = 900.0
SETUPS_PER_BATCH = 3
#: live_day: simulated days (the last, a weekday, is replayed), ingest
#: ticks and queries per burst.  120 ticks leave 12 beyond the p90.
LIVE_DAYS = 10
LIVE_TICKS = 120
BURST = 16
#: gateway: campus buildings, simulated days, open-loop rate, clients,
#: closed-loop queries per measured second, set-ups per run, chunks of a
#: set-up's warm-up pass, and one in REPEAT_EVERY queries repeats an
#: earlier one exactly.  Sparse arrivals
#: get one-query windows (~4 ms each, both lanes sharing one interpreter
#: lock), so the open loop's tail grows faster than the host slows once
#: windows overlap: over four or five seeds the open-loop p90 spread by
#: 0.17-0.52 of its median at 100 qps and by 0.05-0.35 at 50 qps in the
#: same minutes, and at 200 qps the host's slow spells saturated it.
#: The open loop takes OPEN_SHARE of the measured seconds, and the open
#: and closed loops alternate over ROUNDS rounds (~20 open-loop queries,
#: ~0.4 s, and ~0.2 s of closed loop each at 30 s), so a slow spell of the
#: shared host lands on both and on few of the rounds whose median is
#: reported, and the spins around each phase sample the host's speed
#: close to when the phase ran.
CAMPUS_BUILDINGS = 4
CAMPUS_DAYS = 6
OPEN_RATE = 50.0
OPEN_SHARE = 0.7
CLIENTS = 16
CLOSED_PER_SECOND = 200
GATEWAY_SETUPS = 3
WARM_CHUNKS = 8
REPEAT_EVERY = 10
ROUNDS = 48
#: Occupied hours: weekdays, 09:00-17:00.
WORKDAY = (9 * 3600.0, 17 * 3600.0)
#: Host-speed spin: iterations of a pure-Python loop, and its time at the
#: reference speed (the measurement host's fast state reads ~1.3-1.4 ms,
#: its slow state ~2.0 ms).
SPIN_ITERATIONS = 20_000
REFERENCE_SPIN_NS = 1_500_000


@dataclass
class Unit:
    """The timed samples of one unit of work.

    Latency samples hold one value per query (a cold batch's answers all
    arrive when it returns, so one value stands for them); freshness
    samples likewise, or one per tick on live_day.
    """

    qps: float
    latency_ms: list[float]
    fresh_ms: list[float]


@dataclass
class Measurement:
    """What one workload run measured, before it becomes metrics.

    ``setup_s`` and ``units`` are scaled to the reference speed;
    ``raw_setup_s`` and ``raw_units`` hold the same samples as measured.
    """

    setup_s: list[float] = field(default_factory=list)
    units: list[Unit] = field(default_factory=list)
    raw_setup_s: list[float] = field(default_factory=list)
    raw_units: list[Unit] = field(default_factory=list)
    attempted: int = 0
    raised: int = 0
    shed: int = 0
    wrong: int = 0
    precision: PrecisionCounts = field(default_factory=PrecisionCounts)
    peak_rss_mb: float = 0.0
    late_ms: list[float] = field(default_factory=list)
    #: Input-property shares of the traced unit (traced runs only).
    shares: dict[str, float] = field(default_factory=dict)
    #: Traced unit wall over the untraced one, minus 1 (traced runs).
    overhead_share: float = 0.0
    #: Timed wall of the traced unit, for span coverage.
    traced_wall_ns: int = 0

    @property
    def failed(self) -> int:
        """Raised + shed + wrong answers."""
        return self.raised + self.shed + self.wrong


# -- host-side helpers ----------------------------------------------------

def spin_ns() -> int:
    """One run of the host-speed spin, in ns."""
    start = time.perf_counter_ns()
    total = 0
    for i in range(SPIN_ITERATIONS):
        total += i * i % 7
    return time.perf_counter_ns() - start


def speed(before_ns: int, after_ns: int) -> float:
    """The host's speed around a timed piece of work, as a factor.

    The reference spin time over the mean of the spins run just before
    and just after the work: below 1 while the host runs slow.  A time
    measured there is reported as time x factor, a rate as rate / factor.
    """
    return 2 * REFERENCE_SPIN_NS / (before_ns + after_ns)


def timed_setup(m: "Measurement", build):
    """``build()``, its time recorded into ``m`` (raw and scaled)."""
    before = spin_ns()
    start = time.perf_counter()
    built = build()
    setup = time.perf_counter() - start
    m.raw_setup_s.append(setup)
    m.setup_s.append(setup * speed(before, spin_ns()))
    return built


def inputs_ready() -> None:
    """Mark the end of input generation, before any set-up.

    The generated inputs (simulated world, ground truth, query lists)
    are frozen out of the garbage collector's view, so the full
    collections that pause serving traverse the system's objects only,
    and the kernel's resident high-water mark (VmHWM) restarts so that
    ``peak_rss_mb`` covers set-up and serving.
    """
    gc.collect()
    gc.freeze()
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb() -> float:
    """VmHWM of this process in MiB."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def unit_schedule(seconds: float, traced: bool,
                  timed: list[float]) -> Iterator[bool]:
    """Whether each successive unit of work runs traced.

    Untraced runs repeat units until ``timed`` (the caller appends each
    unit's timed seconds) sums to ``seconds``; traced runs do a warm-up
    unit (a process's first unit runs ~10% slow), then one untraced and
    one traced unit of the same work, whose times give the overhead.
    Each unit starts from a collected heap, so the previous unit's
    cyclic garbage neither inflates peak_rss_mb nor pauses its batch.
    """
    steps = (False, False, True) if traced else itertools.takewhile(
        lambda _: not timed or sum(timed) < seconds, itertools.repeat(False))
    for step in steps:
        gc.collect()
        yield step


def tracing(tracer: "Tracer | None", traced: bool):
    """The tracer's wrap points for a traced unit, else nothing."""
    return tracer.installed() if traced and tracer is not None \
        else nullcontext()


def event_history(dataset) -> list:
    """The dataset's raw event stream, in arrival order."""
    return sorted((event for mac in dataset.table.macs()
                   for event in dataset.table.events_of(mac)),
                  key=lambda e: (e.timestamp, e.mac, e.ap_id))


def ingest(events) -> tuple[EventTable, IngestionEngine]:
    """A fresh table filled through the ingestion engine."""
    table = EventTable()
    engine = IngestionEngine(table)
    engine.ingest(events)
    return table, engine


def score(dataset, queries: Sequence[LocationQuery],
          answers: Sequence[LocationAnswer], into: PrecisionCounts) -> None:
    """Tally §6.1's Q_out / Q_region / Q_room against ground truth."""
    for query, answer in zip(queries, answers):
        truth = dataset.true_room_at(query.mac, query.timestamp)
        region_ok = truth is not None and answer.inside and \
            answer.region_id is not None and \
            truth in dataset.building.region(answer.region_id).rooms
        into.record(truth_outside=truth is None,
                    predicted_outside=not answer.inside,
                    region_correct=region_ok,
                    room_correct=region_ok and answer.room_id == truth)


def input_shares(queries: Sequence[LocationQuery],
                 answers: Sequence[LocationAnswer],
                 tracer: Tracer) -> dict[str, float]:
    """Input-property shares of one traced unit.

    ``gap_outside``, ``coarse_only``, ``fine`` and ``stored_hit``
    partition the answers; ``from_event`` cuts across them.  Stored hits
    come from the storage wrapper: lookups that answered the query.
    """
    n = len(answers)
    stored = tracer.counts["storage.answered"]
    stored_outside = tracer.counts["storage.answered_outside"]
    computed = [a for a in answers if a.fine is not None]
    outside = sum(not a.inside for a in answers) - stored_outside
    timestamps = Counter(q.timestamp for q in queries)
    seen: set[tuple[str, float]] = set()
    repeats = 0
    for query in queries:
        key = (query.mac, query.timestamp)
        repeats += key in seen
        seen.add(key)
    return {
        "input.from_event_share": sum(a.from_event for a in answers) / n,
        "input.gap_outside_share": outside / n,
        "input.coarse_only_share":
            sum(a.fine.neighbors_total == 0 for a in computed) / n,
        "input.fine_share": sum(a.fine.neighbors_total > 0
                                for a in computed) / n,
        "input.stored_hit_share": stored / n,
        "input.shared_ts_share":
            sum(timestamps[q.timestamp] > 1 for q in queries) / n,
        "input.repeat_share": repeats / n,
    }


def mismatches(expected: Sequence[LocationAnswer],
               got: Sequence[LocationAnswer]) -> int:
    """Answers that differ (bitwise, via dataclass equality)."""
    if len(expected) != len(got):
        return max(len(expected), len(got))
    return sum(a != b for a, b in zip(expected, got))


# -- cold_batch -------------------------------------------------------------

class _AnswerTap:
    """The Locater as the occupancy job sees it, keeping the answers.

    ``occupancy_series`` reduces answers to counts; the tap hands its
    single ``locate_batch`` call straight through and keeps the result
    for the correctness gate and the precision score.
    """

    def __init__(self, locater: Locater) -> None:
        self.locater = locater
        self.queries: list[LocationQuery] = []
        self.answers: list[LocationAnswer] = []

    def locate_batch(self, queries) -> list[LocationAnswer]:
        self.queries = list(queries)
        self.answers = self.locater.locate_batch(self.queries)
        return self.answers


def cold_batch(seed: int, seconds: float,
               tracer: "Tracer | None" = None) -> Measurement:
    """Occupancy grid over a cold lone Locater (see module docstring)."""
    dataset = Simulator(ScenarioSpec.dbh_like(
        seed=WORLD_SEED, population=POPULATION)).run(days=COLD_DAYS)
    history = event_history(dataset)
    macs = dataset.macs()
    # The seed shifts the grid by up to GRID_JITTER seconds: every
    # timestamp moves, while the slots keep their times of day (a wider
    # shift changes how many queries fall in occupied hours, and with it
    # the work and the precision, by more than the bounds).
    phase = float(np.random.default_rng(seed).uniform(0.0, GRID_JITTER))
    window = TimeInterval(dataset.span.start + phase, dataset.span.end)
    m = Measurement()
    timed: list[float] = []
    #: The first batch's queries and answers; later batches must agree.
    reference: "tuple[list, list] | None" = None
    inputs_ready()
    for traced in unit_schedule(seconds, tracer is not None, timed):
        # Set-ups are timed next to each batch, so that their median
        # spans the run instead of one moment of the host.
        for _ in range(SETUPS_PER_BATCH):
            locater = timed_setup(m, lambda: Locater(
                dataset.building, dataset.metadata, ingest(history)[0]))
        tap = _AnswerTap(locater)
        with tracing(tracer, traced):
            before = spin_ns()
            begin = time.perf_counter_ns()
            with tracer.span("bench.batch") if traced else nullcontext():
                occupancy_series(tap, macs, window, step=SLOT_SECONDS)
            wall_ns = time.perf_counter_ns() - begin
            factor = speed(before, spin_ns())
        batch_s = wall_ns / 1e9
        timed.append(batch_s)
        n = len(tap.answers)
        m.attempted += n
        if reference is None:
            reference = tap.queries, tap.answers
        else:
            m.wrong += mismatches(reference[1], tap.answers)
        if traced:
            m.traced_wall_ns = wall_ns
            # Scaled like the timed metrics: the untraced batch before it
            # is the last unit.
            m.overhead_share = \
                batch_s * factor * 1e3 / m.units[-1].latency_ms[0] - 1.0
            m.shares = input_shares(tap.queries, tap.answers, tracer)
        else:
            # Every answer arrives when the batch returns; freshness runs
            # from the raw history, through the last set-up, to answers.
            for units, setup, scale in (
                    (m.raw_units, m.raw_setup_s[-1], 1.0),
                    (m.units, m.setup_s[-1], factor)):
                units.append(Unit(qps=n / (batch_s * scale),
                                  latency_ms=[batch_s * scale * 1e3],
                                  fresh_ms=[(setup + batch_s * scale) * 1e3]))
    m.peak_rss_mb = peak_rss_mb()

    # Gate: the batch engine's contract — sequential locate over the
    # plan's execution order on a fresh system gives the same answers.
    queries, answers = reference
    sequential = Locater(dataset.building, dataset.metadata,
                         ingest(history)[0])
    expected: list = [None] * len(queries)
    for planned in plan_queries(queries).ordered():
        query = planned.query
        expected[planned.index] = sequential.locate(query.mac,
                                                    query.timestamp)
    m.wrong += mismatches(expected, answers)
    score(dataset, queries, answers, m.precision)
    return m


# -- live_day ---------------------------------------------------------------

def live_day(seed: int, seconds: float,
             tracer: "Tracer | None" = None) -> Measurement:
    """Streaming final day over a warmed lone Locater (module docstring)."""
    dataset = Simulator(ScenarioSpec.dbh_like(
        seed=WORLD_SEED, population=POPULATION)).run(days=LIVE_DAYS)
    # Warm-up pass: every device at 03:00 of each warm-up day — gap
    # queries, so set-up trains (nearly) every device.
    warm = [LocationQuery(mac=mac, timestamp=day * SECONDS_PER_DAY + 3 * 3600.0)
            for day in range(1, LIVE_DAYS - 1) for mac in dataset.macs()]
    config = LocaterConfig(use_caching=False)
    rng = np.random.default_rng(seed)
    m = Measurement()
    timed: list[float] = []
    #: Per replay: its burst seed and the answers of the gated ticks.
    checks: list[tuple[int, dict[int, list[LocationAnswer]]]] = []
    inputs_ready()
    for replay, traced in enumerate(
            unit_schedule(seconds, tracer is not None, timed)):
        # Each replay of the day draws its own bursts: the median tick
        # depends on which devices a burst retrains, by more than the
        # host's noise once scaled, so a run's median spans several
        # draws.  A traced run's units replay the same bursts, to
        # compare like with like.
        day_seed = seed * 1000 + (0 if tracer is not None else replay)
        day = streaming_day_workload(dataset, batches=LIVE_TICKS,
                                     queries_per_burst=BURST, seed=day_seed)
        answers, day_ns, rollovers, unit, raw = _replay_day(
            dataset, day, warm, config, m, tracer if traced else None)
        timed.append(day_ns / 1e9)
        # The first replay is checked at its last tick and two seeded
        # ones, every replay at its rollover and one seeded tick.
        sampled = 1 if checks else 2
        checked = {*rollovers, *(int(i) for i in rng.choice(
            LIVE_TICKS, sampled, replace=False))}
        if not checks:
            checked.add(LIVE_TICKS - 1)
        checks.append((day_seed, {i: answers[i] for i in checked}))
        for batch, burst in zip(day.batches, answers):
            score(dataset, batch.queries, burst, m.precision)
        if traced:
            m.traced_wall_ns = day_ns
            m.overhead_share = m.units[-1].qps / unit.qps - 1.0
            queries = [q for b in day.batches for q in b.queries]
            m.shares = input_shares(
                queries, [a for burst in answers for a in burst], tracer)
        else:
            m.units.append(unit)
            m.raw_units.append(raw)
    m.peak_rss_mb = peak_rss_mb()

    # Gate: caching off makes answers pure functions of the table, so a
    # cold rebuild over the stream so far must answer a burst identically
    # — checked at the ticks sampled above.  The day is rebuilt from its
    # seed, so that serving never holds more than one replay's inputs.
    for day_seed, bursts in checks:
        day = streaming_day_workload(dataset, batches=LIVE_TICKS,
                                     queries_per_burst=BURST, seed=day_seed)
        for index, burst in sorted(bursts.items()):
            cold_table = EventTable.from_events(day.events_through(index))
            DeltaEstimator().fit_table(cold_table)
            cold = Locater(dataset.building, dataset.metadata, cold_table,
                           config=config, storage=InMemoryStorage())
            m.wrong += mismatches(
                cold.locate_batch(day.batches[index].queries), burst)
    return m


def _replay_day(dataset, day, warm, config, m: Measurement,
                tracer: "Tracer | None"):
    """Set up a warmed session and replay ``day``'s ticks through it.

    Set-up is timed into ``m``.  Returns the bursts' answers, the ticks'
    total time in ns, the indices of ticks that dropped every model (the
    day rollover) and the replay's timed samples, scaled and as measured:
    each tick's ingest-to-answered time and, per query, its burst's call
    time.  Each tick is scaled by the spins around it.  The system is
    released on return.
    """
    def build() -> StreamingSession:
        table, engine = ingest(day.warmup)
        locater = Locater(dataset.building, dataset.metadata, table,
                          config=config, storage=InMemoryStorage())
        session = StreamingSession(locater, engine)
        session.query(warm)
        return session

    session = timed_setup(m, build)
    answers: list[list[LocationAnswer]] = []
    rollovers: list[int] = []
    unit = Unit(qps=0.0, latency_ms=[], fresh_ms=[])
    raw = Unit(qps=0.0, latency_ms=[], fresh_ms=[])
    day_ns = 0
    scaled_ns = 0.0
    with tracing(tracer, tracer is not None), session:
        for batch in day.batches:
            full_before = session.full_invalidations
            before = spin_ns()
            with tracer.span("bench.tick") if tracer else nullcontext():
                t0 = time.perf_counter_ns()
                try:
                    session.ingest(batch.ingest)
                except ReproError:
                    m.raised += 1
                t1 = time.perf_counter_ns()
                try:
                    burst = session.query(batch.queries)
                except ReproError:
                    m.raised += len(batch.queries)
                    burst = []
                t2 = time.perf_counter_ns()
            factor = speed(before, spin_ns())
            day_ns += t2 - t0
            scaled_ns += (t2 - t0) * factor
            answers.append(burst)
            if session.full_invalidations > full_before:
                rollovers.append(batch.index)
            m.attempted += len(batch.queries) + 1
            for samples, scale in ((raw, 1.0), (unit, factor)):
                samples.fresh_ms.append((t2 - t0) * scale / 1e6)
                samples.latency_ms.extend([(t2 - t1) * scale / 1e6]
                                          * len(burst))
    answered = sum(len(burst) for burst in answers)
    raw.qps = answered / (day_ns / 1e9)
    unit.qps = answered / (scaled_ns / 1e9)
    return answers, day_ns, rollovers, unit, raw


# -- gateway ----------------------------------------------------------------

def query_stream(dataset, rng: np.random.Generator,
                 count: int) -> list[LocationQuery]:
    """Queries in occupied hours with distinct timestamps; every
    ``REPEAT_EVERY``-th one repeats an earlier query exactly (as a new
    object, so the tracer can tell the two submissions apart)."""
    macs = dataset.macs()
    weekdays = [d for d in range(int(dataset.span.duration
                                     // SECONDS_PER_DAY)) if d % 7 < 5]
    out: list[LocationQuery] = []
    used: set[float] = set()
    while len(out) < count:
        if out and len(out) % REPEAT_EVERY == REPEAT_EVERY - 1:
            original = out[int(rng.integers(len(out)))]
            out.append(LocationQuery(mac=original.mac,
                                     timestamp=original.timestamp))
            continue
        day = weekdays[int(rng.integers(len(weekdays)))]
        timestamp = day * SECONDS_PER_DAY + float(rng.uniform(*WORKDAY))
        if timestamp in used:
            continue
        used.add(timestamp)
        out.append(LocationQuery(mac=macs[int(rng.integers(len(macs)))],
                                 timestamp=timestamp))
    return out


@dataclass
class _Phase:
    """Answers and per-query latencies of one load phase."""

    answers: list
    latency_ms: list[float]
    wall_s: float
    raised: int = 0
    shed: int = 0
    late_ms: list[float] = field(default_factory=list)
    #: The host's speed around the phase (see :func:`speed`).
    speed: float = 1.0

    @property
    def rate(self) -> float:
        """Queries answered per second."""
        return sum(a is not None for a in self.answers) / self.wall_s

    @classmethod
    def merged(cls, phases: "list[_Phase]") -> "_Phase":
        """The rounds of one load shape, as one phase."""
        return cls(answers=[a for p in phases for a in p.answers],
                   latency_ms=[x for p in phases for x in p.latency_ms],
                   wall_s=sum(p.wall_s for p in phases),
                   raised=sum(p.raised for p in phases),
                   shed=sum(p.shed for p in phases),
                   late_ms=[x for p in phases for x in p.late_ms])


def rounds(items: Sequence, count: int) -> list:
    """``items`` cut into ``count`` contiguous, near-equal chunks."""
    bounds = np.linspace(0, len(items), count + 1).round().astype(int)
    return [items[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


async def _ask(gateway: AsyncGateway, phase: _Phase, index: int,
               query: LocationQuery, since: float) -> None:
    """One query; a failed or shed query counts as infinitely late."""
    try:
        phase.answers[index] = await gateway.locate_query(query)
        phase.latency_ms.append((time.perf_counter() - since) * 1e3)
    except GatewayOverloadedError:
        phase.shed += 1
        phase.latency_ms.append(float("inf"))
    except ReproError:
        phase.raised += 1
        phase.latency_ms.append(float("inf"))


async def closed_loop(gateway: AsyncGateway,
                      queries: Sequence[LocationQuery]) -> _Phase:
    """CLIENTS callers, each sending its next query after an answer."""
    phase = _Phase(answers=[None] * len(queries), latency_ms=[], wall_s=0.0)
    pending = iter(enumerate(queries))

    async def client() -> None:
        for index, query in pending:
            await _ask(gateway, phase, index, query, time.perf_counter())

    begin = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(CLIENTS)))
    phase.wall_s = time.perf_counter() - begin
    return phase


async def open_loop(gateway: AsyncGateway,
                    queries: Sequence[LocationQuery],
                    gaps: np.ndarray) -> _Phase:
    """Poisson arrivals; latency runs from each query's scheduled send."""
    phase = _Phase(answers=[None] * len(queries), latency_ms=[], wall_s=0.0)
    tasks = []
    begin = time.perf_counter()
    for index, (query, offset) in enumerate(zip(queries, np.cumsum(gaps))):
        due = begin + float(offset)
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        phase.late_ms.append(max(0.0, time.perf_counter() - due) * 1e3)
        tasks.append(asyncio.create_task(
            _ask(gateway, phase, index, query, due)))
    await asyncio.gather(*tasks)
    phase.wall_s = time.perf_counter() - begin
    return phase


def _build_cluster(dataset, history) -> ShardedLocater:
    return ShardedLocater(dataset.building, dataset.metadata,
                          ingest(history)[0], shard_count=2,
                          storage=InMemoryStorage())


def gateway(seed: int, seconds: float,
            tracer: "Tracer | None" = None) -> Measurement:
    """Warm read-only traffic through AsyncGateway (module docstring)."""
    dataset = isolated_campus_dataset(buildings=CAMPUS_BUILDINGS,
                                      population=POPULATION,
                                      days=CAMPUS_DAYS, seed=WORLD_SEED)
    history = event_history(dataset)
    rng = np.random.default_rng(seed)
    open_count = max(1, round(OPEN_RATE * OPEN_SHARE * seconds))
    closed_count = max(CLIENTS, round(CLOSED_PER_SECOND * seconds))
    # Warm-up: a 03:00 gap query per device and weekday (trains every
    # device's models), then as much occupied-hour traffic to warm the
    # caches.  A traced run also needs spare queries for its untraced
    # comparison pass.
    weekdays = [d for d in range(CAMPUS_DAYS) if d % 7 < 5]
    warm = [LocationQuery(mac=mac, timestamp=day * SECONDS_PER_DAY + 3 * 3600.0)
            for day in weekdays for mac in dataset.macs()]
    stream = iter(query_stream(dataset, rng, len(warm) + open_count
                               + 2 * closed_count))
    warm += [next(stream) for _ in range(len(warm))]
    open_queries = [next(stream) for _ in range(open_count)]
    closed_queries = [next(stream) for _ in range(closed_count)]
    spare_queries = list(stream)
    gaps = rng.exponential(1.0 / OPEN_RATE, open_count)
    m = Measurement()
    inputs_ready()
    served, open_rounds, closed_rounds, untraced = asyncio.run(_serve(
        dataset, history, warm, open_queries, closed_queries, gaps,
        spare_queries if tracer is not None else None, tracer, m))
    m.peak_rss_mb = peak_rss_mb()
    opened, closed = _Phase.merged(open_rounds), _Phase.merged(closed_rounds)
    # Nothing is ingested while the gateway serves, so an answer is as
    # fresh as the request it answers: freshness is open-loop latency.
    for open_, shut in zip(open_rounds, closed_rounds):
        scaled = [x * open_.speed for x in open_.latency_ms]
        m.units.append(Unit(qps=shut.rate / shut.speed, latency_ms=scaled,
                            fresh_ms=scaled))
        m.raw_units.append(Unit(qps=shut.rate, latency_ms=open_.latency_ms,
                                fresh_ms=open_.latency_ms))
    m.late_ms = opened.late_ms
    for phase in (opened, closed, *(untraced or [])):
        m.raised += phase.raised
        m.shed += phase.shed
    m.attempted = GATEWAY_SETUPS * len(warm) + open_count + closed_count \
        + (len(spare_queries) if untraced is not None else 0)
    queries = [*open_queries, *closed_queries]
    answers = [*opened.answers, *closed.answers]
    answered = [(q, a) for q, a in zip(queries, answers) if a is not None]
    score(dataset, [q for q, _ in answered], [a for _, a in answered],
          m.precision)
    if tracer is not None:
        m.overhead_share = statistics.median(
            phase.rate / phase.speed for phase in untraced) / statistics.median(
            phase.rate / phase.speed for phase in closed_rounds) - 1.0
        m.traced_wall_ns = int((opened.wall_s + closed.wall_s) * 1e9)
        m.shares = input_shares(queries, [a for _, a in answered], tracer)

    # Gate: replay the journal's windows, in order, through plain
    # locate_batch on an identically built cluster — bitwise equal.
    with _build_cluster(dataset, history) as replay:
        for record in served.journal:
            if isinstance(record, WindowRecord):
                m.wrong += mismatches(
                    list(record.answers),
                    replay.locate_batch(list(record.queries)))
    return m


@asynccontextmanager
async def _warmed(dataset, history, warm,
                  m: Measurement) -> AsyncIterator[AsyncGateway]:
    """A gateway over a fresh cluster after its warm-up pass.

    Set-up — ingest, construction and warm-up — is timed into ``m``.
    The gateway and cluster are closed on the way out, whatever
    happened: an ``AsyncGateway`` left open after a shed query can hang
    ``asyncio.run`` teardown.
    """
    before = spin_ns()
    start = time.perf_counter()
    cluster = _build_cluster(dataset, history)
    gateway = AsyncGateway(cluster, journal=True)
    built = time.perf_counter() - start
    built_speed = speed(before, spin_ns())
    try:
        # The ~1.5 s warm-up pass is long against the host's speed
        # spells, so it runs in chunks scaled one by one, like the
        # serving rounds.
        warmed = [await _with_speed(closed_loop(gateway, chunk))
                  for chunk in rounds(warm, WARM_CHUNKS)]
        m.raw_setup_s.append(built + sum(p.wall_s for p in warmed))
        m.setup_s.append(built * built_speed +
                         sum(p.wall_s * p.speed for p in warmed))
        for phase in warmed:
            m.raised += phase.raised
            m.shed += phase.shed
        yield gateway
    finally:
        await gateway.close()
        cluster.close()


async def _serve(dataset, history, warm, open_queries, closed_queries,
                 gaps, spare_queries, tracer, m: Measurement):
    """Set up GATEWAY_SETUPS times (median is setup_s), serve on the last.

    Returns the serving gateway (closed, journal intact), the traced or
    timed open-loop and closed-loop rounds, and the untraced closed-loop
    rounds that a traced run compares with its traced ones.
    """
    for _ in range(GATEWAY_SETUPS - 1):
        async with _warmed(dataset, history, warm, m):
            pass
    # Short runs (the tests' one second) get fewer rounds, none empty.
    count = min(ROUNDS, len(open_queries))
    async with _warmed(dataset, history, warm, m) as gateway:
        untraced = None if spare_queries is None else [
            await _with_speed(closed_loop(gateway, chunk))
            for chunk in rounds(spare_queries, count)]
        opened, closed = [], []
        with tracing(tracer, tracer is not None):
            for arrivals, waits, callers in zip(
                    rounds(open_queries, count), rounds(gaps, count),
                    rounds(closed_queries, count)):
                # A full collection while the gateway is idle, so the
                # round's tail is serving, not where one of the
                # collector's 15-65 ms pauses happened to land
                # (runtime.gc_ms reports the pauses themselves).
                gc.collect()
                opened.append(await _with_speed(
                    open_loop(gateway, arrivals, waits)))
                closed.append(await _with_speed(
                    closed_loop(gateway, callers)))
    return gateway, opened, closed, untraced


async def _with_speed(phase: "Awaitable[_Phase]") -> _Phase:
    """The phase, with the host's speed around it (the loop is idle)."""
    before = spin_ns()
    done = await phase
    done.speed = speed(before, spin_ns())
    return done
