"""One shard of a cluster: a full ``Locater`` serving its owned devices.

A shard wraps everything one serving slice needs behind the small
method surface the executors dispatch to (see
:mod:`repro.cluster.executor`).  Its wiring follows from its table,
which the cluster chose from the executor's placement:

* **shared-table** (in-process executors): every shard's ``Locater``
  reads the *same* :class:`~repro.events.table.EventTable` object.  The
  cluster merges each ingest batch once and fans the resulting
  :class:`~repro.system.ingestion.IngestReport` out to
  :meth:`Shard.on_ingest`, which invalidates that shard's models.
* **attached** (process executor): the shard lives in a worker process
  and reads a read-only view of the cluster's table, attached by
  segment name to its shared-memory columns.  The shard owns a
  :class:`~repro.system.streaming.StreamingSession` over the view, so
  repeated bursts share memos worker-side.  After each merge the
  cluster sends :meth:`Shard.apply_table_sync` the owner's new segment
  names and its report; the view advances and the session invalidates
  and prunes exactly as if it had merged the batch itself.
"""

from __future__ import annotations

import os
from collections.abc import Sequence

from repro.errors import ClusterError
from repro.system.ingestion import IngestReport
from repro.system.locater import (
    BatchState,
    InvalidationSummary,
    Locater,
    LocationAnswer,
)
from repro.system.planner import DEFAULT_BUCKET_SECONDS
from repro.system.query import LocationQuery
from repro.system.streaming import StreamingSession


class Shard:
    """One slice of a :class:`~repro.cluster.sharded.ShardedLocater`.

    Args:
        shard_id: Position in the cluster (also the storage namespace
            the cluster derived for this shard).
        locater: The cleaning system.  Over the cluster's own table the
            shard is shared-table wired; over an attached table view
            it runs a persistent :class:`StreamingSession`, so repeated
            bursts share memos and every table sync prunes them.
    """

    def __init__(self, shard_id: int, locater: Locater) -> None:
        self.shard_id = shard_id
        self.locater = locater
        self._session = StreamingSession(locater) \
            if locater.table.store.is_attached else None

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def locate_query(self, query: LocationQuery) -> LocationAnswer:
        """Answer one query (the cluster routed it here)."""
        return self.locater.locate_query(query)

    def locate_batch(self, queries: Sequence[LocationQuery],
                     bucket_seconds: float = DEFAULT_BUCKET_SECONDS,
                     collect_timings: bool = False,
                     share_computation: bool = True,
                     state: "BatchState | None" = None
                     ) -> "tuple[list[LocationAnswer], list[tuple[int, float]] | None]":
        """Answer this shard's slice of a batch.

        Returns the answers in slice order plus, when requested, the
        per-query timings as (slice index, seconds) pairs — the cluster
        maps both back to the caller's input indices.  An attached shard
        substitutes its session's persistent state when none is given,
        so streaming bursts keep their memos warm worker-side.
        """
        timings: "list[tuple[int, float]] | None" = \
            [] if collect_timings else None
        if state is None and self._session is not None and share_computation:
            state = self._session.state
        answers = self.locater.locate_batch(
            queries, bucket_seconds=bucket_seconds, timings=timings,
            share_computation=share_computation, state=state)
        return answers, timings

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def on_ingest(self, report: IngestReport) -> InvalidationSummary:
        """Shared-table wiring: the cluster merged; invalidate locally."""
        if self._session is not None:
            raise ClusterError(
                "attached shards advance through apply_table_sync")
        return self.locater.on_ingest(report)

    def apply_table_sync(self, payload, report: IngestReport
                         ) -> InvalidationSummary:
        """Attached wiring: advance the shared-memory view, invalidate.

        The authoritative process merged the batch and published new
        segments; ``payload`` (:class:`~repro.events.table.TableSync`)
        swaps them into this shard's attached table and ``report`` — the
        owner's merge report, bitwise what a local engine would have
        produced — then drives the same invalidation + memo pruning a
        local merge would.
        """
        if self._session is None:
            raise ClusterError(
                "apply_table_sync targets shards serving an attached "
                "shared-memory table view")
        self.locater.table.apply_sync(payload)
        return self._session.observe_report(report)

    # ------------------------------------------------------------------
    # Cache edge exchange
    # ------------------------------------------------------------------
    def export_cache_edges(self, macs: Sequence[str]
                           ) -> "list[tuple[str, str, list[tuple[float, float]]]]":
        """Extract every recorded affinity edge incident to ``macs``.

        One half of the cluster's edge-exchange protocol (see
        :meth:`GlobalAffinityGraph.extract_edges
        <repro.cache.global_graph.GlobalAffinityGraph.extract_edges>`):
        when the router re-keys devices, the cluster pulls their edge
        vectors from whichever shard recorded them.  Plain-tuple
        payload, so it crosses process executors' pickled pipes.
        Empty when this shard runs with caching off.
        """
        cache = self.locater.cache
        if cache is None or not macs:
            return []
        return cache.graph.extract_edges(macs)

    def import_cache_edges(self, edges: "Sequence[tuple[str, str, list[tuple[float, float]]]]"
                           ) -> int:
        """Insert extracted edge vectors; the protocol's other half."""
        cache = self.locater.cache
        if cache is None or not edges:
            return 0
        return cache.graph.insert_edges(edges)

    def export_cache_state(self) -> "dict | None":
        """Snapshot the full caching state (non-destructive checkpoint).

        The supervision layer calls this after successful operations;
        :meth:`import_cache_state` on a freshly resurrected shard
        restores the snapshot, making post-recovery cache contents *and*
        hit/miss counters bitwise-identical to a shard that never died.
        ``None`` when caching is off (nothing to restore).  Plain-tuple
        edges payload, so it crosses process executors' pickled pipes.
        """
        cache = self.locater.cache
        if cache is None:
            return None
        return {
            "edges": cache.graph.snapshot_edges(),
            "hits": cache.hits,
            "misses": cache.misses,
        }

    def import_cache_state(self, state: "dict | None") -> None:
        """Restore a :meth:`export_cache_state` snapshot after restart."""
        cache = self.locater.cache
        if cache is None or state is None:
            return
        cache.graph.clear()
        cache.graph.insert_edges(state["edges"])
        cache.hits = state["hits"]
        cache.misses = state["misses"]

    # ------------------------------------------------------------------
    # Observability / lifecycle
    # ------------------------------------------------------------------
    def ping(self) -> int:
        """Liveness probe: answers with the shard id (supervision)."""
        return self.shard_id

    def cache_stats(self) -> "dict[str, int] | None":
        """The shard's caching-engine counters (None when caching off)."""
        cache = self.locater.cache
        return cache.stats() if cache is not None else None

    def stats(self) -> dict[str, int]:
        """Serving counters: table size plus session ingest counts."""
        out = {
            "shard_id": self.shard_id,
            "events": len(self.locater.table),
            "devices": self.locater.table.device_count,
        }
        if self._session is not None:
            out["ingests"] = self._session.ingests
            out["full_invalidations"] = self._session.full_invalidations
        return out

    def table_memory(self) -> dict:
        """This shard's event-table memory accounting.

        Combines the column store's logical byte accounting (exact; an
        attached view reads kind ``shared-attached`` and the owner's
        column bytes) with the process's ``VmRSS`` as an auxiliary
        physical signal; RSS alone is dishonest for shared pages, which
        are counted in every process that touched them.
        """
        out = self.locater.table.memory_stats()
        out["pid"] = os.getpid()
        try:
            with open("/proc/self/status", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmRSS:"):
                        out["rss_kb"] = int(line.split()[1])
                        break
        except OSError:
            pass
        return out

    def close(self) -> None:
        """Detach the session; unmap an attached table view.  Idempotent.

        Never touches a shared-table (in-process) shard's store — it
        belongs to the cluster — but an attached view's mappings are
        explicitly closed so worker shutdown never depends on GC
        ordering against live segments.
        """
        if self._session is not None:
            self._session.close()
            self.locater.table.close()
