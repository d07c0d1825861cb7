"""Slow reference implementations the fast code is checked against.

Everything here works from first principles on raw vertex and edge data:
path enumeration by DFS, component counting by flood fill, pair counting
straight from definitions. Nothing calls back into the routines under test.
"""

from collections import defaultdict
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import product

from rainbowconn.coloring import EdgeColoring
from rainbowconn.graph import Graph


@lru_cache(maxsize=4096)
def all_pair_simple_paths(g: Graph):
    """Every simple path between every pair u < v, as vertex tuples."""
    paths: dict[tuple[int, int], list[tuple[int, ...]]] = defaultdict(list)
    for u in range(g.n):
        stack = [u]
        on_path = {u}

        def walk(x: int) -> None:
            for y in g.adj[x]:
                if y in on_path:
                    continue
                stack.append(y)
                on_path.add(y)
                if y > u:
                    paths[(u, y)].append(tuple(stack))
                walk(y)
                stack.pop()
                on_path.discard(y)

        walk(u)
    return {pair: tuple(ps) for pair, ps in paths.items()}


def is_rainbow_path(coloring: EdgeColoring, path: tuple[int, ...]) -> bool:
    colors = [coloring.color(a, b) for a, b in zip(path, path[1:])]
    return len(set(colors)) == len(colors)


def naive_rainbow_connected(g: Graph, coloring: EdgeColoring):
    """First-principles verdict: scan pairs ascending, try every simple path."""
    paths = all_pair_simple_paths(g)
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not any(is_rainbow_path(coloring, p) for p in paths.get((u, v), ())):
                return False, (u, v)
    return True, None


def _component_count(vertices, edges) -> int:
    alive = set(vertices)
    adj = defaultdict(set)
    for a, b in edges:
        if a in alive and b in alive:
            adj[a].add(b)
            adj[b].add(a)
    seen: set[int] = set()
    count = 0
    for v in alive:
        if v in seen:
            continue
        count += 1
        frontier = [v]
        seen.add(v)
        while frontier:
            x = frontier.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
    return count


def brute_bridges(g: Graph):
    base = _component_count(range(g.n), g.edges)
    out = []
    for e in g.edges:
        rest = [f for f in g.edges if f != e]
        if _component_count(range(g.n), rest) > base:
            out.append(e)
    return out


def brute_cut_vertices(g: Graph):
    base = _component_count(range(g.n), g.edges)
    out = []
    for v in range(g.n):
        expected = base - 1 if g.degree(v) == 0 else base
        rest = [e for e in g.edges if v not in e]
        remaining = [u for u in range(g.n) if u != v]
        if _component_count(remaining, rest) > expected:
            out.append(v)
    return out


def brute_srg_parameters(g: Graph):
    """(n, k, lam, mu) by raw pair counting; None when not strongly regular."""
    n = g.n
    if n == 0 or g.m == 0 or g.m == n * (n - 1) // 2:
        return None
    nbrs = [set(g.adj[v]) for v in range(n)]
    degrees = {len(s) for s in nbrs}
    if len(degrees) != 1:
        return None
    lams = set()
    mus = set()
    for u in range(n):
        for v in range(u + 1, n):
            common = len(nbrs[u] & nbrs[v])
            (lams if v in nbrs[u] else mus).add(common)
    if len(lams) > 1 or len(mus) > 1:
        return None
    return (n, degrees.pop(), lams.pop(), mus.pop())


def canonical_strings(length: int, classes: int, prefix: tuple[int, ...] = ()):
    """Lexicographically, every string of the given length whose values stay
    within 1..classes and at most one above the running maximum."""
    if len(prefix) == length:
        yield prefix
        return
    for c in range(1, min(max(prefix, default=0) + 1, classes) + 1):
        yield from canonical_strings(length, classes, prefix + (c,))


def oracle_rc(g: Graph):
    """(rc, first rainbow connecting canonical string) by plain enumeration:
    level l tries every canonical string with at most l colors, in order."""
    if g.n <= 1:
        return 0, ()
    for level in range(1, g.m + 1):
        for colors in canonical_strings(g.m, level):
            if naive_rainbow_connected(g, EdgeColoring.from_sequence(g, colors))[0]:
                return level, colors
    raise AssertionError("a connected graph is rainbow connected with m colors")


def dfs_rc(g: Graph, level: int):
    """First rainbow connecting canonical string with at most level colors,
    or None: the pruned depth-first search that preceded forward checking.

    Each pair's simple paths of at most level edges are listed as tuples of
    edge indices, and the pair is checked only once the largest index on
    them is colored; the branch is cut when none of its paths is rainbow. A
    pair without such a path is checked at edge 0. Colors go in g.edges
    order, ascending, each at most one above the running maximum.
    """
    if g.m == 0:
        return ()
    edge_id = {e: i for i, e in enumerate(g.edges)}
    checks = [[] for _ in range(g.m)]
    for s in range(g.n):
        paths = {t: [] for t in range(s + 1, g.n)}
        stack = [(s, (), 1 << s)]
        while stack:
            v, path, seen = stack.pop()
            for w in g.adj[v]:
                if seen >> w & 1:
                    continue
                p = path + (edge_id[(v, w) if v < w else (w, v)],)
                if w > s:
                    paths[w].append(p)
                if len(p) < level:
                    stack.append((w, p, seen | 1 << w))
        for listed in paths.values():
            checks[max(map(max, listed), default=0)].append(listed)
    colors = [0] * g.m
    # top[d] is the largest color among edges 0..d-1.
    top = [0] * (g.m + 1)
    d = 0
    while d >= 0:
        c = colors[d] + 1
        if c > top[d] + 1 or c > level:
            colors[d] = 0
            d -= 1
            continue
        colors[d] = c
        if all(
            any(len({colors[e] for e in p}) == len(p) for p in listed)
            for listed in checks[d]
        ):
            top[d + 1] = max(top[d], c)
            d += 1
            if d == g.m:
                return tuple(colors)
    return None


def prufer_tree(seq: tuple[int, ...]):
    """Decode a sequence over 0..n-1 into the edges of a labeled tree."""
    n = len(seq) + 2
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapify(leaves)
    edges = []
    for x in seq:
        leaf = heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heappush(leaves, x)
    a = heappop(leaves)
    b = heappop(leaves)
    edges.append((min(a, b), max(a, b)))
    return n, sorted(edges)


def tree_canonical(n: int, edges) -> str:
    """Isomorphism-invariant string for a tree, rooted at its center(s)."""
    if n == 1:
        return "()"
    adj = defaultdict(set)
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    alive = dict.fromkeys(range(n), True)
    degree = {v: len(adj[v]) for v in range(n)}
    remaining = n
    layer = [v for v in range(n) if degree[v] <= 1]
    while remaining > 2:
        nxt = []
        for v in layer:
            alive[v] = False
            remaining -= 1
            for w in adj[v]:
                if alive[w]:
                    degree[w] -= 1
                    if degree[w] == 1:
                        nxt.append(w)
        layer = nxt
    centers = [v for v in range(n) if alive[v]]

    def rooted(v: int, parent: int) -> str:
        subs = sorted(rooted(w, v) for w in adj[v] if w != parent)
        return "(" + "".join(subs) + ")"

    return min(rooted(c, -1) for c in centers)


def nonisomorphic_trees(n: int):
    """One labeled representative per tree shape on n vertices."""
    if n == 1:
        return [(1, [])]
    if n == 2:
        return [(2, [(0, 1)])]
    reps = {}
    for seq in product(range(n), repeat=n - 2):
        size, edges = prufer_tree(seq)
        key = tree_canonical(size, edges)
        if key not in reps:
            reps[key] = (size, edges)
    return list(reps.values())
