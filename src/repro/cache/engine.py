"""The caching engine: wires local/global graphs into query answering."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.cache.global_graph import GlobalAffinityGraph
from repro.cache.local_graph import LocalAffinityGraph
from repro.fine.neighbors import NeighborDevice
from repro.util.timeutil import SECONDS_PER_DAY


class CachingEngine:
    """Maintains the global affinity graph across queries (paper §5).

    One read and one write per query: :meth:`prepare_neighbors` orders
    the neighbors before Algorithm 2 runs (so high-affinity neighbors
    are processed first and the early stop fires sooner) and derives
    their affinity caps; :meth:`record` then merges the per-neighbor
    edge weights the run computed.
    """

    def __init__(self, sigma: float = SECONDS_PER_DAY,
                 max_observations_per_edge: int = 64) -> None:
        self._graph = GlobalAffinityGraph(
            sigma=sigma, max_observations_per_edge=max_observations_per_edge)
        self.hits = 0
        self.misses = 0

    @property
    def graph(self) -> GlobalAffinityGraph:
        """The underlying global affinity graph."""
        return self._graph

    # ------------------------------------------------------------------
    def prepare_neighbors(self, mac: str,
                          neighbors: Sequence[NeighborDevice],
                          timestamp: float
                          ) -> "tuple[list[NeighborDevice], np.ndarray]":
        """Order neighbors by cached affinity and derive their caps.

        Reads each cached edge weight once.  The order is descending
        affinity to ``mac`` at ``timestamp``; a neighbor with no cached
        edge ranks last with affinity 0, strictly *below* cached
        zero-weight edges (a recorded 0.0 is evidence — "these two are
        not companions" — while a missing edge is no evidence at all);
        ties break by MAC.  Input multiplicity is preserved: duplicate
        MACs come back grouped in input order at the MAC's ranked
        position, and share the cap of the MAC's last entry.

        Counts a *hit* when at least one neighbor has a cached edge (the
        order is informed), a *miss* otherwise (cold cache: the order is
        the input's).

        Returns:
            The reordered neighbor list and a float64 vector aligned with
            it of each cached edge's cap (see :meth:`_cap`) — the
            representation the fine localizer's bounds machinery
            consumes directly.  Entries without a cached edge are NaN
            (the localizer substitutes its configured default).
        """
        if not neighbors:
            return [], np.empty(0)
        by_mac: dict[str, list[NeighborDevice]] = {}
        for neighbor in neighbors:
            by_mac.setdefault(neighbor.mac, []).append(neighbor)
        cached: dict[str, "float | None"] = {
            other: self._graph.affinity_at(mac, other, timestamp)
            for other in by_mac}
        cap_by_mac: dict[str, float] = {}
        for other, weight in cached.items():
            if weight is not None:
                cap_by_mac[other] = self._cap(weight, by_mac[other][-1])
        if all(weight is None for weight in cached.values()):
            # Cold cache: no edge to any of these neighbors was ever
            # recorded, so the order carries no information.  (A cached
            # edge with weight 0.0 *is* information and counts as a hit.)
            self.misses += 1
            ordered = list(neighbors)
        else:
            self.hits += 1
            ranked = sorted(
                ((other, 0.0 if weight is None else weight,
                  weight is None)
                 for other, weight in cached.items()),
                key=lambda entry: (-entry[1], entry[2], entry[0]))
            ordered = [entry for other, _, _ in ranked
                       for entry in by_mac[other]]
        caps = np.array([cap_by_mac.get(n.mac, np.nan) for n in ordered])
        return ordered, caps

    @staticmethod
    def _cap(weight: float, neighbor: NeighborDevice) -> float:
        """The clamped co-location-mass bound for one cached weight.

        A cached weight is the *mean* group affinity over the candidate
        rooms, so the neighbor's total co-location mass is roughly the
        weight times the candidate count; scale up with margin and
        clamp.  A device cached with near-zero weight gets a tiny cap,
        which is what lets the early-stop conditions ignore it.
        """
        scaled = weight * 2.0 * max(len(neighbor.candidate_rooms), 1)
        return min(max(scaled, 0.02), 0.5)

    # ------------------------------------------------------------------
    def record(self, mac: str, timestamp: float,
               edge_weights: dict[str, float]) -> None:
        """Persist one query's local affinity graph into the global graph."""
        local = LocalAffinityGraph(center=mac, timestamp=timestamp)
        for other, weight in edge_weights.items():
            local.add_edge(other, weight)
        self._graph.merge_local(local)

    def stats(self) -> dict[str, int]:
        """Cache effectiveness counters."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "edges": self._graph.edge_count,
            "nodes": self._graph.node_count,
        }
