"""The two-call reference of the §5 cache's read path.

:meth:`repro.cache.engine.CachingEngine.prepare_neighbors` orders a
query's neighbors and derives their caps with one affinity read per
edge.  This module keeps the two passes it replaced as the oracle the
cache tests compare against: :func:`rank` (the global graph's ranking
contract) orders the candidates, and :func:`neighbor_caps` then reads
every edge again for the caps.

Nothing in the production pipeline imports this module.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.cache.global_graph import GlobalAffinityGraph
from repro.fine.neighbors import NeighborDevice


def rank(graph: GlobalAffinityGraph, mac: str, candidates: Iterable[str],
         timestamp: float) -> list[tuple[str, float]]:
    """Candidates sorted by descending cached affinity to ``mac``.

    Unseen candidates rank last with affinity 0 — strictly *below*
    cached zero-weight edges: a recorded weight of 0.0 is evidence
    ("these two are not companions"), absence of an edge is no evidence
    at all.  Ties break by MAC.
    """
    scored: list[tuple[str, float, bool]] = []
    for other in candidates:
        affinity = graph.affinity_at(mac, other, timestamp)
        unseen = affinity is None
        scored.append((other, 0.0 if unseen else affinity, unseen))
    scored.sort(key=lambda entry: (-entry[1], entry[2], entry[0]))
    return [(other, affinity) for other, affinity, _ in scored]


def order_neighbors(graph: GlobalAffinityGraph, mac: str,
                    neighbors: Sequence[NeighborDevice], timestamp: float
                    ) -> "tuple[list[NeighborDevice], bool]":
    """The neighbors in :func:`rank` order, and whether that was a hit.

    A hit is a read with at least one cached edge; on a miss the input
    order stands.  Duplicate MACs come back grouped in input order at
    the MAC's ranked position.  ``neighbors`` must be non-empty (the
    engine counts an empty read as neither).
    """
    by_mac: dict[str, list[NeighborDevice]] = {}
    for neighbor in neighbors:
        by_mac.setdefault(neighbor.mac, []).append(neighbor)
    if all(graph.affinity_at(mac, other, timestamp) is None
           for other in by_mac):
        return list(neighbors), False
    return [entry for other, _ in rank(graph, mac, by_mac, timestamp)
            for entry in by_mac[other]], True


def neighbor_caps(graph: GlobalAffinityGraph, mac: str,
                  neighbors: Sequence[NeighborDevice],
                  timestamp: float) -> np.ndarray:
    """Cached affinity upper bounds per neighbor, aligned with it.

    The cached mean weight times twice the candidate-room count, clamped
    to [0.02, 0.5]; NaN where no edge is cached.  Duplicate MACs share
    the cap of the MAC's last entry.
    """
    cap_by_mac: dict[str, float] = {}
    for neighbor in neighbors:
        cached = graph.affinity_at(mac, neighbor.mac, timestamp)
        if cached is not None:
            scaled = cached * 2.0 * max(len(neighbor.candidate_rooms), 1)
            cap_by_mac[neighbor.mac] = min(max(scaled, 0.02), 0.5)
    return np.array([cap_by_mac.get(n.mac, np.nan) for n in neighbors])


def prepare_neighbors(graph: GlobalAffinityGraph, mac: str,
                      neighbors: Sequence[NeighborDevice], timestamp: float
                      ) -> "tuple[list[NeighborDevice], np.ndarray, bool]":
    """Order, then caps of the ordered list: (order, caps, hit)."""
    ordered, hit = order_neighbors(graph, mac, neighbors, timestamp)
    return ordered, neighbor_caps(graph, mac, ordered, timestamp), hit
