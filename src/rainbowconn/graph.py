"""Simple undirected graphs plus the structural analyses everything else builds on.

Vertices are dense integer indices 0..n-1, adjacency lists are sorted, and all
result types are immutable, so every routine here is deterministic and safe to
share across threads. Whole-graph facts (the diameter and the lowlink scan
behind bridges, cut vertices and connectivity) are memoized on the immutable
Graph, so each is computed at most once per graph; two threads racing on the
first computation store the same immutable value. The diameter has a fast
path: a complete graph gives 1, and any other graph in which every vertex
reaches all vertices within two steps gives 2, a test run on int bitsets.
Only the remaining graphs pay for a breadth-first search from every source.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_
from typing import Iterable

from .errors import IndexOutOfRange, InvalidEdge

Edge = tuple[int, int]

# Sentinel distance for vertices a BFS never reaches.
UNREACHABLE = -1


def normalize_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: deduplicated sorted edges, sorted adjacency."""

    n: int
    edges: tuple[Edge, ...]
    adj: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_set(self) -> frozenset[Edge]:
        return frozenset(self.edges)

    @cached_property
    def adj_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(nbrs) for nbrs in self.adj)

    @cached_property
    def _diameter(self) -> int | None:
        n = self.n
        if n == 0:
            return None
        if self.is_complete():
            return 1 if n > 1 else 0
        # Diameter 2 test on int bitsets: the closed neighborhoods of N[u]
        # cover every vertex, for every u.
        closed = [1 << v for v in range(n)]
        for u, v in self.edges:
            closed[u] |= 1 << v
            closed[v] |= 1 << u
        full = (1 << n) - 1
        if all(
            reduce(or_, map(closed.__getitem__, nbrs), closed[u]) == full
            for u, nbrs in enumerate(self.adj)
        ):
            return 2
        # Otherwise the exact value (or None) comes from BFS from every source.
        best = 0
        for v in range(self.n):
            layers = bfs_layers(self, v)
            if UNREACHABLE in layers.dist:
                return None
            best = max(best, layers.eccentricity)
        return best

    @cached_property
    def _lowlink(self) -> tuple[tuple[Edge, ...], tuple[int, ...], int]:
        return _lowlink_scan(self)

    def has_edge(self, u: int, v: int) -> bool:
        return normalize_edge(u, v) in self.edge_set

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def is_complete(self) -> bool:
        return self.m == self.n * (self.n - 1) // 2


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Validate, deduplicate, and normalize an edge list into a Graph.

    Raises InvalidEdge for self loops and IndexOutOfRange for endpoints
    outside 0..n-1.
    """
    if n < 0:
        raise IndexOutOfRange(f"vertex count must be nonnegative, got {n}")
    seen: set[Edge] = set()
    for u, v in edges:
        if u == v:
            raise InvalidEdge(f"self loop at vertex {u}")
        if not (0 <= u < n) or not (0 <= v < n):
            raise IndexOutOfRange(f"edge ({u}, {v}) outside 0..{n - 1}")
        seen.add((u, v) if u < v else (v, u))
    ordered = tuple(sorted(seen))
    adj: list[list[int]] = [[] for _ in range(n)]
    # Each list comes out sorted: x meets its smaller neighbors w on the edges
    # (w, x), ordered by w, and all of them precede the edges (x, w'), which
    # bring its larger neighbors ordered by w'.
    for u, v in ordered:
        adj[u].append(v)
        adj[v].append(u)
    return Graph(n, ordered, tuple(map(tuple, adj)))


@dataclass(frozen=True)
class BfsLayers:
    """BFS result from one center: per-vertex distances and distance layers.

    dist[u] is UNREACHABLE for vertices in other components. layers[d] lists,
    in ascending order, the vertices at distance d; layers[0] is the center.
    """

    center: int
    dist: tuple[int, ...]
    layers: tuple[tuple[int, ...], ...]

    @property
    def eccentricity(self) -> int:
        """Largest finite distance from the center."""
        return len(self.layers) - 1

    def layer(self, d: int) -> tuple[int, ...]:
        return self.layers[d] if d < len(self.layers) else ()


def bfs_layers(g: Graph, center: int) -> BfsLayers:
    """Breadth first search from center, neighbors visited in ascending order."""
    if not (0 <= center < g.n):
        raise IndexOutOfRange(f"center {center} outside 0..{g.n - 1}")
    dist = [UNREACHABLE] * g.n
    dist[center] = 0
    queue = deque([center])
    while queue:
        u = queue.popleft()
        for w in g.adj[u]:
            if dist[w] == UNREACHABLE:
                dist[w] = dist[u] + 1
                queue.append(w)
    ecc = max(d for d in dist if d != UNREACHABLE) if g.n else 0
    grouped: list[list[int]] = [[] for _ in range(ecc + 1)]
    for u, d in enumerate(dist):
        if d != UNREACHABLE:
            grouped[d].append(u)
    return BfsLayers(center, tuple(dist), tuple(tuple(layer) for layer in grouped))


def is_connected(g: Graph) -> bool:
    """At most one component: the lowlink scan started at most one DFS root."""
    return g._lowlink[2] <= 1


def diameter(g: Graph) -> int | None:
    """Largest pairwise distance, or None when the graph is disconnected."""
    return g._diameter


def components(g: Graph, *, without: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Connected components, optionally of the graph with one vertex deleted.

    Components are listed by ascending smallest member; members are sorted.
    """
    skip = -1 if without is None else without
    seen = [False] * g.n
    if 0 <= skip < g.n:
        seen[skip] = True
    out: list[tuple[int, ...]] = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        queue = deque([start])
        comp = [start]
        while queue:
            u = queue.popleft()
            for w in g.adj[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        out.append(tuple(sorted(comp)))
    return tuple(out)


def _lowlink_scan(g: Graph) -> tuple[tuple[Edge, ...], tuple[int, ...], int]:
    # Iterative depth first search computing discovery and low times; an edge
    # (parent, v) is a bridge when low[v] > disc[parent], and parent is a cut
    # vertex when low[v] >= disc[parent] (roots need two or more children).
    # Returns bridges, cut vertices and the number of DFS roots (components).
    n = g.n
    disc = [-1] * n
    low = [0] * n
    bridge_list: list[Edge] = []
    cut_set: set[int] = set()
    timer = 0
    roots = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        roots += 1
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        stack: list[list[int]] = [[root, -1, 0]]
        while stack:
            frame = stack[-1]
            v, parent, i = frame
            if i < len(g.adj[v]):
                frame[2] += 1
                w = g.adj[v][i]
                if w == parent:
                    continue
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    if v == root:
                        root_children += 1
                    stack.append([w, v, 0])
                elif disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                if parent != -1:
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    if low[v] > disc[parent]:
                        bridge_list.append(normalize_edge(parent, v))
                    if parent != root and low[v] >= disc[parent]:
                        cut_set.add(parent)
        if root_children >= 2:
            cut_set.add(root)
    return tuple(sorted(bridge_list)), tuple(sorted(cut_set)), roots


def bridges(g: Graph) -> tuple[Edge, ...]:
    """All bridges (edges whose removal disconnects their component), sorted."""
    return g._lowlink[0]


def cut_vertices(g: Graph) -> tuple[int, ...]:
    """All cut vertices (removal disconnects their component), ascending."""
    return g._lowlink[1]


def is_two_connected(g: Graph) -> bool:
    """Connected, at least three vertices, and free of cut vertices."""
    return g.n >= 3 and is_connected(g) and not cut_vertices(g)


@dataclass(frozen=True)
class ForestBipartition:
    """Spanning forest of an induced subgraph with its proper 2-coloring.

    Every forest edge joins left to right. Vertices isolated inside the
    induced subgraph become singleton left-side trees.
    """

    forest_edges: tuple[Edge, ...]
    left: frozenset[int]
    right: frozenset[int]


def spanning_forest_bipartition(g: Graph, subset: Iterable[int]) -> ForestBipartition:
    """Depth first spanning forest of the subgraph induced on subset.

    Each component is rooted at its lowest index and explored in ascending
    neighbor order, so the result is deterministic. Roots sit on the left
    side and tree depth alternates sides.
    """
    chosen = sorted(set(subset))
    for v in chosen:
        if not (0 <= v < g.n):
            raise IndexOutOfRange(f"subset vertex {v} outside 0..{g.n - 1}")
    inside = set(chosen)
    order = {v: [w for w in g.adj[v] if w in inside] for v in chosen}
    side: dict[int, int] = {}
    forest: list[Edge] = []
    for root in chosen:
        if root in side:
            continue
        side[root] = 0
        stack: list[list[int]] = [[root, 0]]
        while stack:
            frame = stack[-1]
            v, i = frame
            if i < len(order[v]):
                frame[1] += 1
                w = order[v][i]
                if w not in side:
                    side[w] = 1 - side[v]
                    forest.append(normalize_edge(v, w))
                    stack.append([w, 0])
            else:
                stack.pop()
    left = frozenset(v for v, s in side.items() if s == 0)
    right = frozenset(v for v, s in side.items() if s == 1)
    return ForestBipartition(tuple(sorted(forest)), left, right)


@dataclass(frozen=True)
class SrgParameters:
    """Strong regularity certificate: (n, k, lam, mu) pair counts."""

    n: int
    k: int
    lam: int
    mu: int


def srg_parameters(g: Graph) -> SrgParameters | None:
    """Return (n, k, lam, mu) when the graph is strongly regular, else None.

    Empty and complete graphs are excluded because one of the two pair counts
    is undefined for them.
    """
    n = g.n
    if n == 0 or g.m == 0 or g.is_complete():
        return None
    degrees = {g.degree(v) for v in range(n)}
    if len(degrees) != 1:
        return None
    k = degrees.pop()
    lam: int | None = None
    mu: int | None = None
    sets = g.adj_sets
    for u in range(n - 1):
        for w in range(u + 1, n):
            common = len(sets[u] & sets[w])
            if w in sets[u]:
                if lam is None:
                    lam = common
                elif lam != common:
                    return None
            else:
                if mu is None:
                    mu = common
                elif mu != common:
                    return None
    # Both kinds of pairs exist: the graph is neither empty nor complete.
    assert lam is not None and mu is not None
    return SrgParameters(n, k, lam, mu)
