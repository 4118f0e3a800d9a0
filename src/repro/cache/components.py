"""Affinity components: connected components of device coupling.

The global affinity graph (paper §5) couples devices through its
undirected edges — and a *connected component* of that coupling is the
unit of cache locality: every read or write the query path ever issues
touches an edge between the queried device and one of its discovered
neighbors, so a component's edges are closed under the serving access
pattern.  This is what the cluster layer's
:class:`~repro.cluster.router.ComponentAffinityRouter` exploits — it
keeps components of a superset of that graph (devices joined through
the rooms of their observed APs, which every possible neighbor pair
shares), and if every device of a component serves from one shard,
that shard's cache is *exact*: it sees the same edge reads and writes,
in the same order, as a lone deployment would (BiG-SCAPE's
connected-component → family decomposition is the same shape, applied
to gene-cluster similarity networks).

:class:`AffinityComponents` maintains the decomposition incrementally —
a disjoint-set forest with union by size and path compression, plus a
deterministic *minimum-member representative* per component.  The
representative is what makes the structure usable for routing: it is a
pure function of the component's member set (its lexicographic
minimum), invariant to the order edges were inserted in, so any two
processes that have seen the same edges agree on it.  Edges only
accumulate, so components only merge, never split.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator


class AffinityComponents:
    """Incremental connected components with deterministic representatives.

    A disjoint-set forest over string node ids.  ``add_edge`` unions two
    nodes' components; ``representative`` returns the lexicographically
    smallest member of a node's component — a pure function of the
    member set, independent of insertion order.

    Operations are effectively O(α(n)) amortized for find/union; member
    enumeration is O(component size).
    """

    def __init__(self) -> None:
        self._parent: dict[str, str] = {}
        self._members: dict[str, list[str]] = {}
        self._minimum: dict[str, str] = {}

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def add_node(self, node: str) -> None:
        """Ensure ``node`` exists (as a singleton if never seen)."""
        if node not in self._parent:
            self._parent[node] = node
            self._members[node] = [node]
            self._minimum[node] = node

    def add_edge(self, node_a: str, node_b: str) -> bool:
        """Union the components of two nodes; True if they merged.

        Self-loops are allowed and only materialize the node.  Unseen
        endpoints are created on the fly.
        """
        self.add_node(node_a)
        self.add_node(node_b)
        root_a = self._find(node_a)
        root_b = self._find(node_b)
        if root_a == root_b:
            return False
        # Union by size: graft the smaller tree under the larger.
        if len(self._members[root_a]) < len(self._members[root_b]):
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        self._members[root_a].extend(self._members.pop(root_b))
        loser_min = self._minimum.pop(root_b)
        if loser_min < self._minimum[root_a]:
            self._minimum[root_a] = loser_min
        return True

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def __contains__(self, node: str) -> bool:
        return node in self._parent

    def representative(self, node: str) -> str:
        """The smallest member of ``node``'s component (node itself if
        unseen-as-singleton semantics are wanted, call add_node first).

        Raises:
            KeyError: If ``node`` was never added.
        """
        return self._minimum[self._find(node)]

    def connected(self, node_a: str, node_b: str) -> bool:
        """Whether both nodes exist and share a component."""
        if node_a not in self._parent or node_b not in self._parent:
            return False
        return self._find(node_a) == self._find(node_b)

    def component(self, node: str) -> frozenset[str]:
        """Every member of ``node``'s component.

        Raises:
            KeyError: If ``node`` was never added.
        """
        return frozenset(self._members[self._find(node)])

    def components(self) -> Iterator[frozenset[str]]:
        """All components, ordered by representative (deterministic)."""
        roots = sorted(self._members, key=lambda root: self._minimum[root])
        for root in roots:
            yield frozenset(self._members[root])

    def representatives(self) -> list[str]:
        """Every component's representative, sorted."""
        return sorted(self._minimum.values())

    @property
    def node_count(self) -> int:
        """Number of nodes ever added."""
        return len(self._parent)

    @property
    def component_count(self) -> int:
        """Number of disjoint components."""
        return len(self._members)

    def update_from_edges(self,
                          edges: Iterable[tuple[str, str]]) -> int:
        """Union many edges; returns the number of merges performed."""
        merged = 0
        for node_a, node_b in edges:
            if self.add_edge(node_a, node_b):
                merged += 1
        return merged

    # ------------------------------------------------------------------
    def _find(self, node: str) -> str:
        """Root of ``node`` with full path compression."""
        root = node
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[node] != root:
            self._parent[node], node = root, self._parent[node]
        return root

    def __repr__(self) -> str:
        return (f"AffinityComponents({self.node_count} nodes, "
                f"{self.component_count} components)")
