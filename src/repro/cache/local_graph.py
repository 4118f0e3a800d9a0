"""Per-query local affinity graphs (paper §5, step 1).

After answering a query Q = (d_i, t_q), the devices processed by
Algorithm 2 plus d_i form a small graph whose edge weights summarize how
strongly each pair was co-located at t_q:

    w(e_ab, t_q) = Σ_{r ∈ R(gx)} α({d_a, d_b}, r, t_q) / |R(gx)|

The fine localizer computes each weight as it folds a neighbor in
(``FineResult.edge_weights``); this graph only carries them to the
global graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Iterator

from repro.errors import ConfigurationError


@dataclass(slots=True)
class LocalAffinityGraph:
    """The affinity graph of one answered query.

    Attributes:
        center: The queried device d_i.
        timestamp: The query time t_q.
        edges: Mapping from the *other* device's MAC to the edge weight
            between it and ``center`` at ``timestamp``.
    """

    center: str
    timestamp: float
    edges: dict[str, float] = field(default_factory=dict)

    def add_edge(self, other_mac: str, weight: float) -> None:
        """Record the affinity edge (center, other)."""
        if other_mac == self.center:
            raise ConfigurationError(
                "local graph edges must join distinct devices")
        if not (math.isfinite(weight) and weight >= 0):
            raise ConfigurationError(
                f"edge weight must be finite and >= 0, got {weight!r}")
        self.edges[other_mac] = weight

    def __len__(self) -> int:
        return len(self.edges)

    def __iter__(self) -> Iterator[tuple[str, float]]:
        return iter(self.edges.items())
