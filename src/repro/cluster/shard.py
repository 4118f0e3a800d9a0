"""One shard of a cluster: a full ``Locater`` serving its owned devices.

A shard wraps everything one serving slice needs behind the small
method surface the executors dispatch to (see
:mod:`repro.cluster.executor`).  Its wiring follows from its table,
which the cluster chose from the executor's placement:

* **shared-table** (in-process executors): every shard's ``Locater``
  reads the *same* :class:`~repro.events.table.EventTable` object, so a
  merge into it is visible to every shard at once.
* **attached** (process executor): the shard lives in a worker process
  and reads a read-only view of the cluster's table, attached by
  segment name to its shared-memory columns.  After a merge the
  cluster sends :meth:`Shard.apply_table_sync` the owner's new segment
  names, which advance the view to the owner's exact state.

Either way the shard's ``Locater`` keeps itself fresh: at its next
serve it sees the table's generation moved and invalidates what
changed, exactly as a lone system over the merged table would.
"""

from __future__ import annotations

import os
from collections.abc import Sequence

from repro.system.locater import Locater, LocationAnswer
from repro.system.query import LocationQuery


class Shard:
    """One slice of a :class:`~repro.cluster.sharded.ShardedLocater`.

    Args:
        shard_id: Position in the cluster (also the storage namespace
            the cluster derived for this shard).
        locater: The cleaning system, over the cluster's own table or
            over an attached table view.
    """

    def __init__(self, shard_id: int, locater: Locater) -> None:
        self.shard_id = shard_id
        self.locater = locater
        self._syncs = 0

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def locate_query(self, query: LocationQuery) -> LocationAnswer:
        """Answer one query (the cluster routed it here)."""
        return self.locater.locate_query(query)

    def locate_batch(self, queries: Sequence[LocationQuery]
                     ) -> list[LocationAnswer]:
        """Answer this shard's slice of a batch, in slice order.

        The locater's warm state carries memos from one slice to the
        next.
        """
        return self.locater.locate_batch(queries)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def apply_table_sync(self, payload) -> None:
        """Attached wiring: advance the shared-memory view.

        The authoritative process merged and published new segments;
        ``payload`` (:class:`~repro.events.table.TableSync`) swaps them
        into this shard's attached table, each changed device's
        last-change generation included, so the locater's next serve
        invalidates exactly what a local merge would have staled.
        """
        self.locater.table.apply_sync(payload)
        self._syncs += 1

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
        """Serving counters: table size, the locater's full
        invalidations and, on an attached view, the table syncs it
        applied (one per generation move the cluster caught up with;
        an empty ingest moves none)."""
        out = {
            "shard_id": self.shard_id,
            "events": len(self.locater.table),
            "devices": self.locater.table.device_count,
            "full_invalidations": self.locater.full_invalidations,
        }
        if self.locater.table.store.is_attached:
            out["table_syncs"] = self._syncs
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
        """Unmap an attached table view.  Idempotent.

        Never touches a shared-table (in-process) shard's store — it
        belongs to the cluster — but an attached view's mappings are
        explicitly closed so worker shutdown never depends on GC
        ordering against live segments.
        """
        if self.locater.table.store.is_attached:
            self.locater.table.close()
