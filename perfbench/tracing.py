"""In-memory span tracer wrapped around the repro modules' public functions.

Traced runs install :data:`WRAP_POINTS` for the length of one workload
unit and remove them afterwards; ``src/`` is never edited.  Each wrapped
call records a span ``(id, name, start_ns, end_ns, parent, request,
thread)``.  The parent is the innermost wrapped call still open on the
same thread, and the request id is inherited from the outermost span
(one batch, tick or gateway window).  Spans stay in memory until
:meth:`Tracer.write` saves them once, at the end of the run.

A span's self time is its duration minus its children's, so the
``*_ms`` layer metrics partition the covered wall time without double
counting.  A wrap point that no longer exists (a later refactor renamed
or removed it) is recorded in :attr:`Tracer.missing`, and the metrics
that need it are reported as absent rather than failing the run.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import itertools
import threading
import time
from collections import Counter
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from pathlib import Path

import numpy as np

#: Self-time metrics: metric → the span names whose self time it sums.
SELF_TIME = {
    "coarse.train_ms": ("coarse.train_devices", "coarse.models_for",
                        "coarse.selftrain"),
    "coarse.features_ms": ("coarse.features",),
    "ml.fit_ms": ("ml.fit",),
    "coarse.locate_ms": ("coarse.locate",),
    "fine.neighbors_ms": ("fine.neighbors", "fine.snapshot"),
    "fine.locate_ms": ("fine.locate",),
    "cache.prepare_ms": ("cache.prepare",),
    "cache.record_ms": ("cache.record",),
    "storage.find_ms": ("storage.find",),
    "storage.store_ms": ("storage.store",),
    "ingestion.ingest_ms": ("ingestion.ingest",),
    "events.freeze_ms": ("events.freeze",),
    "events.delta_ms": ("events.delta",),
    "locater.on_ingest_ms": ("locater.on_ingest",),
    "streaming.prune_ms": ("streaming.prune",),
    "planner.plan_ms": ("planner.plan",),
    "locater.self_ms": ("locater.locate_batch", "locater.locate_query"),
    "cluster.slice_self_ms": ("cluster.slice", "cluster.shard"),
}

#: Counted metrics → the spans whose wrap points count them.
COUNTED_BY = {
    "coarse.selftrain_fits": ("coarse.selftrain",),
    "ml.fit_iters": ("ml.fit",),
    "fine.snapshots": ("fine.snapshot",),
    "fine.neighbors_processed": ("fine.locate",),
    "fine.processed_share": ("fine.locate",),
    "fine.stopped_early_share": ("fine.locate",),
    "cache.hits": ("cache.prepare",),
    "cache.hit_share": ("cache.prepare",),
    "storage.hits": ("storage.find",),
    "storage.hit_share": ("storage.find",),
    "ingestion.changed_devices": ("ingestion.ingest",),
    "ingestion.full_invalidations": ("locater.on_ingest",),
    "planner.queries_per_group": ("planner.plan",),
    "serve.queue_wait_p50_ms": ("serve.request", "cluster.slice"),
    "serve.queue_wait_p99_ms": ("serve.request", "cluster.slice"),
    "serve.window_ms": ("cluster.slice",),
    "serve.queries_per_window": ("cluster.slice",),
    "cluster.shard_skew": ("cluster.slice",),
}

#: Counters that are pure functions of the inputs on cold_batch and
#: live_day (one caller, one thread): two traced runs with one seed must
#: report them identically.  On gateway, window formation depends on
#: timing, so the same counters are schedule-dependent there.
EXACT_COUNTERS = (
    "coarse.selftrain_fits", "ml.fit_iters", "fine.snapshots",
    "fine.neighbors_processed", "cache.hits", "storage.hits",
    "ingestion.changed_devices", "ingestion.full_invalidations",
)


class Tracer:
    """Collects spans, counters and samples from wrapped calls.

    Wrapped calls run on the gateway's lane threads too.  Appending to a
    list is atomic under the interpreter lock, but ``counter[key] += n``
    is not, so each thread counts into its own ``Counter`` and
    :attr:`counts` sums them.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, int, int, int]] = []
        self._thread_counts: list[Counter[str]] = []
        #: Queue wait of each query a gateway window picked up.
        self.queue_wait_ms: list[float] = []
        self.missing: set[str] = set()
        #: Garbage-collector pause time while installed, and the start
        #: of the collection in progress.
        self.gc_ns = 0
        self._gc_start = 0
        #: id(LocationQuery) → perf_counter_ns at gateway submission.
        self.submitted: dict[int, int] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- counters ---------------------------------------------------------
    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to this thread's counter ``name``."""
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = Counter()
            self._thread_counts.append(counts)
        counts[name] += amount

    @property
    def counts(self) -> Counter[str]:
        """Every counter, summed over threads."""
        total: Counter[str] = Counter()
        for counts in self._thread_counts:
            total.update(counts)
        return total

    # -- span bookkeeping -------------------------------------------------
    def _stack(self) -> list[tuple[int, str, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> tuple[int, int, int, int]:
        stack = self._stack()
        sid = next(self._ids)
        parent, request = (stack[-1][0], stack[-1][2]) if stack else (0, sid)
        stack.append((sid, name, request))
        return sid, parent, request, time.perf_counter_ns()

    def _exit(self, token: tuple[int, int, int, int], name: str) -> None:
        end = time.perf_counter_ns()
        sid, parent, request, start = token
        self._stack().pop()
        self.spans.append((sid, name, start, end, parent, request,
                           threading.get_ident()))

    def parent_name(self) -> "str | None":
        """Name of the span enclosing the innermost open one."""
        stack = self._stack()
        return stack[-2][1] if len(stack) >= 2 else None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A benchmark-side span (one batch or tick); starts a request."""
        token = self._enter(name)
        try:
            yield
        finally:
            self._exit(token, name)

    # -- wrapping ---------------------------------------------------------
    def wrap(self, owner: object, attr: str, name: str,
             hook: "Callable | None" = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        Classes are patched only where they define ``attr`` themselves,
        so an inherited method is never wrapped twice.  For a plain
        function, ``hook(tracer, original, args, kwargs)`` replaces the
        call when given, to count what the call did; for a coroutine
        function, ``hook(tracer, args, start_ns)`` runs before it.
        """
        original = vars(owner).get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if original is None:
            self.missing.add(name)
            return
        if inspect.iscoroutinefunction(original):
            wrapper = self._async_wrapper(original, name, hook)
        else:
            wrapper = self._sync_wrapper(original, name, hook)
        functools.update_wrapper(wrapper, original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _sync_wrapper(self, original, name, hook):
        enter, leave = self._enter, self._exit

        def wrapper(*args, **kwargs):
            token = enter(name)
            try:
                if hook is None:
                    return original(*args, **kwargs)
                return hook(self, original, args, kwargs)
            finally:
                leave(token, name)
        return wrapper

    def _async_wrapper(self, original, name, hook):
        # Coroutines interleave on the loop thread, so their spans never
        # join the thread's stack: each is a top-level request of its own.
        async def wrapper(*args, **kwargs):
            sid = next(self._ids)
            start = time.perf_counter_ns()
            if hook is not None:
                hook(self, args, start)
            try:
                return await original(*args, **kwargs)
            finally:
                self.spans.append((sid, name, start, time.perf_counter_ns(),
                                   0, sid, threading.get_ident()))
        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.gc_ns += time.perf_counter_ns() - self._gc_start

    def install(self) -> None:
        """Wrap every entry of :data:`WRAP_POINTS` that exists."""
        gc.callbacks.append(self._on_gc)
        for module_name, owner_name, attr, name, hook in WRAP_POINTS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.add(name)
                continue
            owner = getattr(module, owner_name, None) if owner_name \
                else module
            if owner is None:
                self.missing.add(name)
                continue
            self.wrap(owner, attr, name, hook)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap points active for the duration of the block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- derived metrics --------------------------------------------------
    def self_times_ms(self) -> dict[str, float]:
        """Span name → total self time in milliseconds."""
        child_ns: Counter[int] = Counter()
        for _, _, start, end, parent, _, _ in self.spans:
            if parent:
                child_ns[parent] += end - start
        totals: Counter[str] = Counter()
        for sid, name, start, end, _, _, _ in self.spans:
            totals[name] += end - start - child_ns[sid]
        return {name: ns / 1e6 for name, ns in totals.items()}

    def durations_ms(self, name: str) -> list[float]:
        """Inclusive durations of every span with this name."""
        return [(end - start) / 1e6 for _, span_name, start, end, _, _, _
                in self.spans if span_name == name]

    def coverage_ns(self, exclude_prefixes: tuple[str, ...]) -> int:
        """Wall time covered by outermost repro spans (union over threads).

        Benchmark-side spans (``bench.*``) and per-request gateway spans
        (which mostly wait) are excluded, so the figure is the share of
        the timed phase during which repro code was running.
        """
        names = {sid: name for sid, name, *_ in self.spans}
        intervals = sorted(
            (start, end) for _, name, start, end, parent, _, _ in self.spans
            if not name.startswith(exclude_prefixes) and
            (parent == 0 or names.get(parent, "").startswith(
                exclude_prefixes)))
        covered = 0
        cursor = None
        for start, end in intervals:
            if cursor is None or start > cursor:
                covered += end - start
                cursor = end
            elif end > cursor:
                covered += end - cursor
                cursor = end
        return covered

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric the recorded spans and counts support."""
        out: dict[str, float] = {"runtime.gc_ms": self.gc_ns / 1e6}
        self_ms = self.self_times_ms()
        missing = self.missing
        for metric, names in SELF_TIME.items():
            if not missing.isdisjoint(names):
                continue
            out[metric] = float(sum(self_ms.get(n, 0.0) for n in names))
        c = self.counts

        def share(numerator: str, denominator: str) -> float:
            return c[numerator] / c[denominator] if c[denominator] else 0.0

        waits = self.queue_wait_ms
        windows = self.durations_ms("cluster.slice")
        counted = {
            "coarse.selftrain_fits": float(c["coarse.selftrain_fits"]),
            "ml.fit_iters": float(c["ml.fit_iters"]),
            "fine.snapshots": float(c["fine.snapshots"]),
            "fine.neighbors_processed": float(c["fine.neighbors_processed"]),
            "fine.processed_share": share("fine.neighbors_processed",
                                          "fine.neighbors_available"),
            "fine.stopped_early_share": share("fine.stopped_early",
                                              "fine.calls"),
            "cache.hits": float(c["cache.hits"]),
            "cache.hit_share": share("cache.hits", "cache.caps"),
            "storage.hits": float(c["storage.hits"]),
            "storage.hit_share": share("storage.hits", "storage.lookups"),
            "ingestion.changed_devices":
                float(c["ingestion.changed_devices"]),
            "ingestion.full_invalidations":
                float(c["ingestion.full_invalidations"]),
            "planner.queries_per_group": share("planner.queries",
                                               "planner.groups"),
            "serve.queue_wait_p50_ms": percentile(waits, 50),
            "serve.queue_wait_p99_ms": percentile(waits, 99),
            "serve.window_ms": float(np.mean(windows)) if windows else 0.0,
            "serve.queries_per_window": share("serve.window_queries",
                                              "serve.windows"),
            "cluster.shard_skew": self._shard_skew(),
        }
        for metric, value in counted.items():
            if metric not in missing and missing.isdisjoint(COUNTED_BY[metric]):
                out[metric] = value
        return out

    def _shard_skew(self) -> float:
        """Busiest shard's window time over the mean across shards."""
        busy = [ns for name, ns in self.counts.items()
                if name.startswith("cluster.busy_ns.")]
        if not busy:
            return 0.0
        return max(busy) / (sum(busy) / len(busy))

    def write(self, path: Path) -> None:
        """Save every span as one tab-separated row (written once)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("id\tname\tstart_ns\tend_ns\tparent\trequest\tthread\n")
            for row in self.spans:
                out.write("\t".join(map(str, row)) + "\n")


def percentile(values: "list[float]", q: float) -> float:
    """``np.percentile`` that reads 0.0 for an empty sample."""
    return float(np.percentile(values, q)) if len(values) else 0.0


# -- hooks: count what a wrapped call did ---------------------------------

def _count_selftrain(tracer, original, args, kwargs):
    classifier = original(*args, **kwargs)
    tracer.count("coarse.selftrain_fits", classifier.rounds_)
    return classifier


def _count_fit(tracer, original, args, kwargs):
    model = original(*args, **kwargs)
    tracer.count("ml.fit_iters", model.n_iter_)
    return model


def _count_snapshot(tracer, original, args, kwargs):
    index, timestamp = args[0], args[1]
    memo = getattr(index, "_snapshots", None)
    if memo is None:
        tracer.missing.add("fine.snapshots")
        return original(*args, **kwargs)
    built = timestamp not in memo
    result = original(*args, **kwargs)
    tracer.count("fine.snapshots", built)
    return result


def _count_fine(tracer, original, args, kwargs):
    result = original(*args, **kwargs)
    tracer.count("fine.calls")
    tracer.count("fine.neighbors_available", result.neighbors_total)
    tracer.count("fine.neighbors_processed", result.neighbors_processed)
    tracer.count("fine.stopped_early", result.stopped_early)
    return result


def _count_prepare(tracer, original, args, kwargs):
    ordered, caps = original(*args, **kwargs)
    tracer.count("cache.caps", caps.size)
    tracer.count("cache.hits", int(np.count_nonzero(~np.isnan(caps))))
    return ordered, caps


def _count_find(tracer, original, args, kwargs):
    found = original(*args, **kwargs)
    parent = tracer.parent_name()
    if parent == "storage.find":
        return found  # a namespaced view delegating to its backend
    tracer.count("storage.lookups")
    if found is not None:
        tracer.count("storage.hits")
        if parent == "locater.locate_query":
            # The answer itself came from storage (the batch pre-pass
            # also looks answers up, to skip training for them).
            tracer.count("storage.answered")
            tracer.count("storage.answered_outside", found == "outside")
    return found


def _count_ingest(tracer, original, args, kwargs):
    report = original(*args, **kwargs)
    tracer.count("ingestion.changed_devices", len(report.changed))
    return report


def _count_invalidation(tracer, original, args, kwargs):
    summary = original(*args, **kwargs)
    tracer.count("ingestion.full_invalidations", summary.full)
    return summary


def _count_plan(tracer, original, args, kwargs):
    plan = original(*args, **kwargs)
    tracer.count("planner.queries", len(plan))
    tracer.count("planner.groups", plan.group_count)
    return plan


def _count_window(tracer, original, args, kwargs):
    shard_id = args[1] if len(args) > 1 else kwargs["shard_id"]
    queries = args[2] if len(args) > 2 else kwargs["queries"]
    start = time.perf_counter_ns()
    waits = tracer.queue_wait_ms
    for query in queries:
        submitted = tracer.submitted.pop(id(query), None)
        if submitted is not None:
            waits.append((start - submitted) / 1e6)
    try:
        return original(*args, **kwargs)
    finally:
        tracer.count(f"cluster.busy_ns.{shard_id}",
                     time.perf_counter_ns() - start)
        tracer.count("serve.windows")
        tracer.count("serve.window_queries", len(queries))


def _note_submission(tracer, args, start):
    tracer.submitted[id(args[1])] = start


#: (module, class or None for a module function, attribute, span, hook).
WRAP_POINTS = (
    ("repro.system.ingestion", "IngestionEngine", "ingest",
     "ingestion.ingest", _count_ingest),
    ("repro.events.table", "EventTable", "freeze", "events.freeze", None),
    ("repro.events.validity", "DeltaEstimator", "fit_devices",
     "events.delta", None),
    ("repro.system.locater", "Locater", "on_ingest", "locater.on_ingest",
     _count_invalidation),
    ("repro.system.streaming", None, "prune_batch_state", "streaming.prune",
     None),
    ("repro.system.locater", "Locater", "locate_batch",
     "locater.locate_batch", None),
    ("repro.system.locater", "Locater", "locate_query",
     "locater.locate_query", None),
    ("repro.system.locater", None, "plan_queries", "planner.plan",
     _count_plan),
    ("repro.coarse.localizer", "CoarseLocalizer", "train_devices",
     "coarse.train_devices", None),
    ("repro.coarse.localizer", "CoarseLocalizer", "models_for",
     "coarse.models_for", None),
    ("repro.coarse.localizer", "CoarseLocalizer", "locate", "coarse.locate",
     None),
    ("repro.coarse.features", "GapFeatureExtractor", "matrix",
     "coarse.features", None),
    ("repro.coarse.semi_supervised", "SelfTrainingClassifier", "fit",
     "coarse.selftrain", _count_selftrain),
    ("repro.ml.logistic", "LogisticRegression", "fit_encoded", "ml.fit",
     _count_fit),
    ("repro.fine.neighbors", "NeighborIndex", "neighbors_for",
     "fine.neighbors", None),
    ("repro.fine.neighbors", "NeighborIndex", "snapshot", "fine.snapshot",
     _count_snapshot),
    ("repro.fine.localizer", "FineLocalizer", "locate", "fine.locate",
     _count_fine),
    ("repro.cache.engine", "CachingEngine", "prepare_neighbors",
     "cache.prepare", _count_prepare),
    ("repro.cache.engine", "CachingEngine", "record", "cache.record", None),
    ("repro.system.storage", "InMemoryStorage", "find_answer",
     "storage.find", _count_find),
    ("repro.system.storage", "NamespacedStorage", "find_answer",
     "storage.find", _count_find),
    ("repro.system.storage", "InMemoryStorage", "store_answer",
     "storage.store", None),
    ("repro.system.storage", "NamespacedStorage", "store_answer",
     "storage.store", None),
    ("repro.cluster.sharded", "ShardedLocater", "locate_slice",
     "cluster.slice", _count_window),
    ("repro.cluster.shard", "Shard", "locate_batch", "cluster.shard", None),
    ("repro.serve.gateway", "AsyncGateway", "locate_query", "serve.request",
     _note_submission),
)
