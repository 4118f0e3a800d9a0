"""Algorithm 2: the iterative fine-grained localization loop (paper §4.2).

Processes neighbor devices one at a time, folding each one's group
affinities into the posterior over candidate rooms, and stops early when
the loosened conditions hold for the top-2 rooms:

1. ``minP(ra | D̄n) >= expP(rb | D̄n)``, or
2. ``expP(ra | D̄n) >= maxP(rb | D̄n)``.

I-FINE treats neighbors as conditionally independent (Eq. 3).  D-FINE
groups the processed neighbors into clusters of mutually affine devices
and treats each cluster as one unit (Eq. 6); its loop additionally stops
once every remaining cluster has zero group affinity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from repro.fine.affinity import (
    DeviceAffinityIndex,
    GroupAffinityModel,
    RoomAffinityModel,
)
from repro.fine.neighbors import NeighborDevice, find_neighbors
from repro.fine.worlds import RoomPosterior
from repro.events.table import EventTable
from repro.space.building import Building


class FineMode(enum.Enum):
    """Inference variant: independent (I-FINE) or dependent (D-FINE)."""

    INDEPENDENT = "I-FINE"
    DEPENDENT = "D-FINE"


@dataclass(frozen=True, slots=True)
class FineResult:
    """Answer of the fine-grained localizer.

    Attributes:
        mac: Queried device.
        timestamp: Query time.
        room_id: The selected room (argmax posterior).
        posterior: Full posterior over candidate rooms.
        neighbors_total: Neighbors available.
        neighbors_processed: Neighbors actually folded in before stopping.
        stopped_early: Whether a stop condition fired before exhausting
            the neighbor set.
        edge_weights: Local-affinity-graph edge weight per processed
            neighbor — w(e_ab, t_q) = mean group affinity over the
            candidate rooms (consumed by the caching engine of §5).
    """

    mac: str
    timestamp: float
    room_id: str
    posterior: dict[str, float]
    neighbors_total: int
    neighbors_processed: int
    stopped_early: bool
    edge_weights: dict[str, float]

    def __str__(self) -> str:
        return (f"{self.mac} @ {self.timestamp:.0f}s → room {self.room_id} "
                f"(p={self.posterior.get(self.room_id, 0.0):.3f}, "
                f"{self.neighbors_processed}/{self.neighbors_total} neighbors)")


@dataclass(slots=True)
class FineSharedState:
    """Cross-query memo of affinity computations (batch engine, §5+).

    Group affinities are pure functions of the member (mac, candidate
    rooms) tuples — they never depend on the query time — and the room
    prior is a pure function of (mac, candidates, timestamp).  A batch of
    queries revisiting the same device/region combinations (occupancy
    grids, trajectory sampling) therefore reuses these values verbatim.

    All memo values are float64 vectors aligned to the key's
    candidate-room tuple (the array core's native representation); keys
    preserve member *order* so memoized vectors are bitwise identical
    to what the sequential path multiplies out.  Every field is a memo
    dict (the warm state's trim and reset enumerate them by field).
    """

    priors: dict = field(default_factory=dict)
    pair_affinities: dict = field(default_factory=dict)
    cluster_affinities: dict = field(default_factory=dict)
    room_affinities: dict = field(default_factory=dict)

    def stats(self) -> dict[str, int]:
        """Memo sizes (for tests and logging)."""
        return {
            "priors": len(self.priors),
            "pairs": len(self.pair_affinities),
            "clusters": len(self.cluster_affinities),
            "rooms": len(self.room_affinities),
        }


@dataclass(slots=True)
class _Cluster:
    """A D-FINE cluster: processed neighbors with mutual device affinity."""

    members: list[NeighborDevice] = field(default_factory=list)

    def macs(self) -> list[str]:
        return [n.mac for n in self.members]


class FineLocalizer:
    """Room disambiguation for one building (Algorithm 2).

    Args:
        building: Space model.
        table: Event table (history for affinity mining).
        room_model: Room-affinity prior model.
        device_index: Device-affinity co-occurrence index.
        mode: I-FINE or D-FINE.
        use_stop_conditions: Disable to process every neighbor (the paper's
            Fig. 11 ablation).
        max_neighbors: Cap on neighbors considered per query.
        affinity_cap: Default co-location-mass bound for unprocessed
            neighbors in the possible-world bounds (see
            :mod:`repro.fine.worlds`).
    """

    def __init__(self, building: Building, table: EventTable,
                 room_model: RoomAffinityModel,
                 device_index: DeviceAffinityIndex,
                 mode: FineMode = FineMode.DEPENDENT,
                 use_stop_conditions: bool = True,
                 max_neighbors: int = 24,
                 affinity_cap: float = 0.1,
                 affinity_noise_floor: float = 0.1) -> None:
        self._building = building
        self._table = table
        self._room_model = room_model
        self._device_index = device_index
        self._group_model = GroupAffinityModel(
            room_model, device_index, building,
            noise_floor=affinity_noise_floor)
        self.mode = mode
        self.use_stop_conditions = use_stop_conditions
        self.max_neighbors = max_neighbors
        self.affinity_cap = affinity_cap

    # ------------------------------------------------------------------
    def locate(self, mac: str, timestamp: float, region_id: int,
               neighbor_order: "Sequence[NeighborDevice] | None" = None,
               neighbor_caps: "np.ndarray | None" = None,
               shared: "FineSharedState | None" = None) -> FineResult:
        """Pick the room of ``mac`` at ``timestamp`` within region ``gx``.

        Args:
            neighbor_order: Pre-ordered neighbor list (the caching engine
                supplies descending-affinity order); default is discovery
                order.
            neighbor_caps: Optional per-neighbor upper bounds on group
                affinity from the global affinity graph, used to tighten
                the possible-world bounds of unprocessed neighbors: a
                float vector aligned with ``neighbor_order`` (NaN = no
                cached bound), as produced by
                :meth:`repro.cache.engine.CachingEngine.prepare_neighbors`.
            shared: Optional batch memo of prior/affinity computations
                (see :class:`FineSharedState`).  Sharing never changes
                the answer — only how often affinities are recomputed.
        """
        candidates = self._building.candidate_room_ids(region_id)
        prior = self._prior_at(mac, candidates, timestamp, shared)
        posterior = RoomPosterior.from_vector(
            candidates, prior, affinity_cap=self.affinity_cap)

        neighbors = list(neighbor_order) if neighbor_order is not None else \
            find_neighbors(self._building, self._table, mac, timestamp,
                           region_id, max_neighbors=self.max_neighbors)
        neighbors = neighbors[: self.max_neighbors]
        caps = None if neighbor_caps is None else \
            neighbor_caps[: len(neighbors)]

        edge_weights: dict[str, float] = {}
        if self.mode is FineMode.INDEPENDENT:
            posterior, processed, stopped = self._run_independent(
                mac, posterior, neighbors, caps, edge_weights, shared)
        else:
            posterior, processed, stopped = self._run_dependent(
                mac, timestamp, posterior, neighbors, caps, edge_weights,
                shared)

        final = posterior.posterior()
        best_room = self._argmax_room(final, mac, timestamp)
        return FineResult(
            mac=mac, timestamp=timestamp, room_id=best_room,
            posterior=final, neighbors_total=len(neighbors),
            neighbors_processed=processed, stopped_early=stopped,
            edge_weights=edge_weights)

    @staticmethod
    def _argmax_room(posterior: dict[str, float], mac: str,
                     timestamp: float) -> str:
        """Argmax with deterministic, query-keyed tie-breaking.

        Devices with no metadata and no co-location evidence end with a
        flat posterior over same-class rooms; breaking ties always toward
        the lexicographically first room would be systematically wrong,
        so ties are broken by a hash of the query instead (uniform across
        queries, reproducible per query).
        """
        best = max(posterior.values())
        tied = sorted(room for room, p in posterior.items()
                      if p >= best - 1e-9)
        if len(tied) == 1:
            return tied[0]
        from repro.util.rng import _fnv1a
        return tied[_fnv1a(f"{mac}|{timestamp:.3f}") % len(tied)]

    # ------------------------------------------------------------------
    def _prior_at(self, mac: str, candidates: tuple[str, ...],
                  timestamp: float,
                  shared: "FineSharedState | None") -> np.ndarray:
        """Room-affinity prior vector, memoized per (mac, candidates, t_q)."""
        if shared is None:
            return self._room_model.affinity_vector_at(mac, candidates,
                                                       timestamp)
        key = (mac, candidates, timestamp)
        prior = shared.priors.get(key)
        if prior is None:
            prior = self._room_model.affinity_vector_at(mac, candidates,
                                                        timestamp)
            shared.priors[key] = prior
        return prior

    def _pair_alpha(self, mac: str, neighbor: NeighborDevice,
                    candidates: tuple[str, ...],
                    shared: "FineSharedState | None" = None) -> np.ndarray:
        """α({d_i, d_k}, ·, t_q) aligned to the candidate rooms.

        Group affinity never depends on t_q (device affinity is mined
        over the history window, room affinity over metadata), so the
        batch memo key is purely structural.
        """
        if shared is not None:
            key = (mac, candidates, neighbor.mac, neighbor.candidate_rooms)
            cached = shared.pair_affinities.get(key)
            if cached is not None:
                return cached
        members = [(mac, candidates),
                   (neighbor.mac, neighbor.candidate_rooms)]
        room_cache = shared.room_affinities if shared is not None else None
        alpha = self._group_model.group_affinities(members, candidates,
                                                   room_cache=room_cache)
        if shared is not None:
            shared.pair_affinities[key] = alpha
        return alpha

    def _caps_for(self, caps_slice: "np.ndarray | None",
                  remaining: int) -> "np.ndarray | None":
        """Resolved cap vector for the unprocessed suffix."""
        if caps_slice is None:
            return None  # RoomPosterior fills in its default cap
        return np.minimum(
            np.where(np.isnan(caps_slice), self.affinity_cap, caps_slice),
            1.0 - 1e-6)

    def _stop_satisfied(self, posterior: RoomPosterior, remaining: int,
                        caps_slice: "np.ndarray | None") -> bool:
        """The loosened stop conditions over the top-2 rooms."""
        post = posterior.posterior_array()
        (room_a, _), (room_b, _) = posterior.top_two(post)
        if not room_b:
            return True  # single candidate: nothing to disambiguate
        caps = self._caps_for(caps_slice, remaining)
        bounds_a, bounds_b = posterior.bounds_pair(
            room_a, room_b, remaining, caps, posterior_map=post)
        return (bounds_a.minimum >= bounds_b.expected
                or bounds_a.expected >= bounds_b.maximum)

    # ------------------------------------------------------------------
    def _run_independent(self, mac: str, posterior: RoomPosterior,
                         neighbors: Sequence[NeighborDevice],
                         caps: "np.ndarray | None",
                         edge_weights: dict[str, float],
                         shared: "FineSharedState | None" = None
                         ) -> "tuple[RoomPosterior, int, bool]":
        """I-FINE: fold neighbors independently (Eq. 3)."""
        candidates = posterior.rooms
        for index, neighbor in enumerate(neighbors):
            alpha = self._pair_alpha(mac, neighbor, candidates, shared)
            edge_weights[neighbor.mac] = float(
                alpha.sum() / len(candidates))
            posterior.observe_array(alpha)
            remaining = len(neighbors) - index - 1
            if (self.use_stop_conditions and remaining
                    and self._stop_satisfied(
                        posterior, remaining,
                        caps[index + 1:] if caps is not None else None)):
                return posterior, index + 1, True
        return posterior, len(neighbors), False

    def _run_dependent(self, mac: str, timestamp: float,
                       posterior: RoomPosterior,
                       neighbors: Sequence[NeighborDevice],
                       caps: "np.ndarray | None",
                       edge_weights: dict[str, float],
                       shared: "FineSharedState | None" = None
                       ) -> "tuple[RoomPosterior, int, bool]":
        """D-FINE: cluster processed neighbors, fold clusters (Eq. 6).

        Clusters are connected components under non-zero pairwise device
        affinity.  Each time a neighbor is processed it joins (or starts)
        a cluster; the posterior is rebuilt from the prior with one factor
        per cluster, whose affinity is α({cluster ∪ d_i}, r, t_q).
        """
        candidates = posterior.rooms
        clusters: list[_Cluster] = []
        processed = 0
        stopped = False
        current = posterior
        for index, neighbor in enumerate(neighbors):
            alpha = self._pair_alpha(mac, neighbor, candidates, shared)
            edge_weights[neighbor.mac] = float(
                alpha.sum() / len(candidates))
            self._assign_to_cluster(clusters, neighbor)
            processed = index + 1
            current = self._posterior_from_clusters(mac, timestamp,
                                                    candidates, clusters,
                                                    shared)
            remaining = len(neighbors) - index - 1
            if not remaining:
                break
            if self.use_stop_conditions:
                if self._all_clusters_zero(mac, clusters, candidates,
                                           shared):
                    stopped = True
                    break
                if self._stop_satisfied(
                        current, remaining,
                        caps[index + 1:] if caps is not None else None):
                    stopped = True
                    break
        return current, processed, stopped

    def _assign_to_cluster(self, clusters: list[_Cluster],
                           neighbor: NeighborDevice) -> None:
        """Place a neighbor into the cluster graph, merging as needed."""
        touching: list[_Cluster] = []
        for cluster in clusters:
            if any(self._device_index.pairwise(neighbor.mac, member.mac) > 0
                   for member in cluster.members):
                touching.append(cluster)
        if not touching:
            clusters.append(_Cluster(members=[neighbor]))
            return
        primary = touching[0]
        primary.members.append(neighbor)
        for extra in touching[1:]:
            primary.members.extend(extra.members)
            clusters.remove(extra)

    def _cluster_alpha(self, mac: str, cluster: _Cluster,
                       candidates: tuple[str, ...],
                       shared: "FineSharedState | None" = None
                       ) -> np.ndarray:
        """α({D̄nl ∪ d_i}, ·, t_q) aligned to the candidate rooms.

        The memo key preserves the cluster's member *order*: the affinity
        product folds members sequentially, and floating-point products
        are order-sensitive, so two orderings of the same member set must
        not share a cache slot (bitwise equivalence with the sequential
        path would be lost).
        """
        if shared is not None:
            key = (mac, candidates,
                   tuple((n.mac, n.candidate_rooms)
                         for n in cluster.members))
            cached = shared.cluster_affinities.get(key)
            if cached is not None:
                return cached
        members = [(mac, candidates)]
        members.extend((n.mac, n.candidate_rooms)
                       for n in cluster.members)
        room_cache = shared.room_affinities if shared is not None else None
        alpha = self._group_model.group_affinities(members, candidates,
                                                   room_cache=room_cache)
        if shared is not None:
            shared.cluster_affinities[key] = alpha
        return alpha

    def _posterior_from_clusters(self, mac: str, timestamp: float,
                                 candidates: tuple[str, ...],
                                 clusters: Sequence[_Cluster],
                                 shared: "FineSharedState | None" = None
                                 ) -> RoomPosterior:
        """Posterior rebuilt from the prior with one factor per cluster.

        Clusters mutate as neighbors join, so the posterior is rebuilt
        each round rather than folded incrementally.
        """
        prior = self._prior_at(mac, candidates, timestamp, shared)
        fresh = RoomPosterior.from_vector(candidates, prior,
                                          affinity_cap=self.affinity_cap)
        for cluster in clusters:
            fresh.observe_array(self._cluster_alpha(mac, cluster,
                                                    fresh.rooms, shared))
        return fresh

    def _all_clusters_zero(self, mac: str, clusters: Sequence[_Cluster],
                           candidates: tuple[str, ...],
                           shared: "FineSharedState | None" = None) -> bool:
        """D-FINE termination: every cluster's group affinity is zero."""
        for cluster in clusters:
            alpha = self._cluster_alpha(mac, cluster, candidates, shared)
            if bool((alpha > 0).any()):
                return False
        return True
