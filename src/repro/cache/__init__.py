"""Caching engine (paper §5): local and global affinity graphs.

Answering a fine-grained query computes pairwise affinities between the
queried device and its neighbors — a *local affinity graph*.  The caching
engine merges every local graph into a *global affinity graph* whose edges
carry vectors of (weight, timestamp) pairs.  Later queries read the global
graph to process neighbors in descending affinity order (weighted by a
Gaussian kernel around the query time), which makes Algorithm 2's early
stop fire sooner: one read (``CachingEngine.prepare_neighbors``) and one
write (``CachingEngine.record``) per query.

*Connected components* of device coupling
(:mod:`repro.cache.components`) are the unit of cache locality the
cluster layer routes by — see
:class:`~repro.cluster.router.ComponentAffinityRouter`.
"""

from repro.cache.components import AffinityComponents
from repro.cache.local_graph import LocalAffinityGraph
from repro.cache.global_graph import EdgeObservation, GlobalAffinityGraph
from repro.cache.engine import CachingEngine

__all__ = [
    "AffinityComponents",
    "CachingEngine",
    "EdgeObservation",
    "GlobalAffinityGraph",
    "LocalAffinityGraph",
]
