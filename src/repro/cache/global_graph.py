"""The global affinity graph (paper §5, steps 2–3).

Nodes are devices; an edge between two devices stores the *vector* of
(weight, timestamp) observations accumulated from local affinity graphs.
Querying the graph at time t_q collapses each vector into one scalar by
weighting observations with a normalized Gaussian kernel centred at t_q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Iterable

from repro.cache.local_graph import LocalAffinityGraph
from repro.errors import ConfigurationError
from repro.util.stats import gaussian_weights
from repro.util.timeutil import SECONDS_PER_DAY
from repro.util.validation import check_positive


@dataclass(frozen=True, slots=True)
class EdgeObservation:
    """One cached (weight, timestamp) affinity observation."""

    weight: float
    timestamp: float


def _edge_key(mac_a: str, mac_b: str) -> tuple[str, str]:
    """Canonical undirected edge key."""
    return (mac_a, mac_b) if mac_a <= mac_b else (mac_b, mac_a)


class GlobalAffinityGraph:
    """Accumulates local affinity graphs across queries.

    Args:
        sigma: Standard deviation of the temporal Gaussian kernel, in
            seconds.  The paper uses a normalized normal distribution
            centred at the query time; observations closer to t_q get
            higher weight.  Default: one day.
        max_observations_per_edge: Older observations beyond this cap are
            dropped FIFO, bounding memory on hot pairs.
    """

    def __init__(self, sigma: float = SECONDS_PER_DAY,
                 max_observations_per_edge: int = 64) -> None:
        check_positive("sigma", sigma)
        check_positive("max_observations_per_edge", max_observations_per_edge)
        self.sigma = sigma
        self.max_observations = int(max_observations_per_edge)
        self._edges: dict[tuple[str, str], list[EdgeObservation]] = {}

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def merge_local(self, local: LocalAffinityGraph) -> None:
        """Fold one local graph into the global graph (Ĝg = Gg ∪ Gl)."""
        for other, weight in local:
            self.add_observation(local.center, other, weight,
                                 local.timestamp)

    def add_observation(self, mac_a: str, mac_b: str, weight: float,
                        timestamp: float) -> None:
        """Append one (weight, timestamp) pair to an edge vector."""
        if mac_a == mac_b:
            raise ConfigurationError(
                "global graph edges must join distinct devices")
        if not math.isfinite(weight):
            raise ConfigurationError(
                f"edge weight must be finite, got {weight!r}")
        key = _edge_key(mac_a, mac_b)
        vector = self._edges.setdefault(key, [])
        vector.append(EdgeObservation(weight=weight, timestamp=timestamp))
        if len(vector) > self.max_observations:
            del vector[: len(vector) - self.max_observations]

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def observations(self, mac_a: str, mac_b: str) -> list[EdgeObservation]:
        """The raw observation vector of an edge (empty if never seen)."""
        return list(self._edges.get(_edge_key(mac_a, mac_b), ()))

    def affinity_at(self, mac_a: str, mac_b: str,
                    timestamp: float) -> "float | None":
        """Time-weighted affinity w(e_ab, t_q), or None if edge unseen.

        w = Σ_j l_j · w_j with l_j the normalized Gaussian kernel of the
        observation timestamps around t_q (paper §5 step 3).
        """
        vector = self._edges.get(_edge_key(mac_a, mac_b))
        if not vector:
            return None
        weights = gaussian_weights(timestamp,
                                   [obs.timestamp for obs in vector],
                                   self.sigma)
        return sum(l * obs.weight for l, obs in zip(weights, vector))

    # ------------------------------------------------------------------
    # Migration (cluster edge exchange)
    # ------------------------------------------------------------------
    def extract_edges(self, macs: Iterable[str]
                      ) -> "list[tuple[str, str, list[tuple[float, float]]]]":
        """Remove and return every edge incident to one of ``macs``.

        The cluster's edge-exchange protocol: when component merges
        rebind devices to a new owning shard, the old shard *extracts*
        the affected edge vectors and the new shard *inserts* them,
        preserving each vector's observation order bitwise — so a later
        ``affinity_at`` on the new shard reads exactly what a lone
        deployment would have accumulated.  Entries are
        ``(mac_a, mac_b, [(weight, timestamp), ...])`` with canonical
        endpoint order — plain tuples, so the payload crosses process
        executors' pickled pipes without importing this module's types.

        Deterministic: edges are returned in graph insertion order.
        """
        targets = set(macs)
        extracted: "list[tuple[str, str, list[tuple[float, float]]]]" = []
        for key in [key for key in self._edges
                    if key[0] in targets or key[1] in targets]:
            vector = self._edges.pop(key)
            mac_a, mac_b = key
            extracted.append((mac_a, mac_b,
                              [(obs.weight, obs.timestamp)
                               for obs in vector]))
        return extracted

    def snapshot_edges(self) -> "list[tuple[str, str, list[tuple[float, float]]]]":
        """Copy every edge vector *without* removing it (checkpointing).

        Same plain-tuple payload as :meth:`extract_edges` — suitable for
        :meth:`insert_edges` into a fresh graph — but non-destructive:
        the supervision layer snapshots shard caches after successful
        operations so a resurrected shard can be restored bitwise, while
        the live graph keeps serving.  Deterministic: edges are returned
        in graph insertion order.
        """
        return [(mac_a, mac_b,
                 [(obs.weight, obs.timestamp) for obs in vector])
                for (mac_a, mac_b), vector in self._edges.items()]

    def insert_edges(self, edges: "Iterable[tuple[str, str, list[tuple[float, float]]]]"
                     ) -> int:
        """Append extracted edge vectors (see :meth:`extract_edges`).

        Observations append in payload order, so a vector moved between
        graphs stays bitwise identical (the FIFO cap still applies if an
        edge somehow exists on both sides).  Returns the number of
        observations inserted.
        """
        inserted = 0
        for mac_a, mac_b, vector in edges:
            for weight, timestamp in vector:
                self.add_observation(mac_a, mac_b, weight, timestamp)
                inserted += 1
        return inserted

    # ------------------------------------------------------------------
    @property
    def edge_count(self) -> int:
        """Number of distinct device pairs cached."""
        return len(self._edges)

    @property
    def node_count(self) -> int:
        """Number of devices appearing in any cached edge."""
        return len({mac for key in self._edges for mac in key})

    def clear(self) -> None:
        """Drop every cached observation."""
        self._edges.clear()
