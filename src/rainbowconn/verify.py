"""Independent verification that a coloring makes a graph rainbow connected.

A graph with colored edges is rainbow connected when every vertex pair is
joined by a path whose edge colors are pairwise distinct. All pairs are
certified at once by a reach table on int bitsets: level l maps each set of l
colors to a row whose entry at v is the set of sources reaching v by a walk
that uses exactly those colors, one edge each. Level l + 1 comes from level l
by OR-ing rows along the edges of each unused color. A rainbow walk shortens
to a rainbow path, so a pair is connected exactly when some row holds it, and
witnesses walk back through the levels; a single-pair query builds the same
table and walks back one target. With k distinct colors the table has at most
2^k rows. When every edge has its own color, any shortest path is rainbow, so
a plain breadth-first search decides instead and no color cap applies. The
checker never trusts the construction code: everything is recomputed from
the graph and the coloring alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import or_

from .coloring import EdgeColoring
from .errors import CapExceeded, ColoringMismatch, IndexOutOfRange
from .graph import Graph, UNREACHABLE

# Bitmask cap on distinct colors: the reach table holds at most 2^16 color
# masks in the worst case the API accepts.
DEFAULT_COLOR_CAP = 16

Pair = tuple[int, int]


@dataclass(frozen=True)
class RainbowCertificate:
    """Outcome of a verification run.

    connected is the verdict. When it is False, failing_pair holds the
    lexicographically least pair with no rainbow path. When witnesses were
    requested and the verdict is Connected, witnesses maps every pair (u, w)
    with u < w to one shortest rainbow path, vertex list inclusive of both
    ends.
    """

    connected: bool
    failing_pair: Pair | None = None
    witnesses: dict[Pair, tuple[int, ...]] | None = None


def _unwind(pred, end: int, start: int) -> list:
    """The chain from start to end, following pred backwards from end."""
    chain = [end]
    while chain[-1] != start:
        chain.append(pred[chain[-1]])
    chain.reverse()
    return chain


def _bfs_parents(g: Graph, s: int) -> list[int]:
    """Breadth-first tree from s: parent of each reached vertex, s for s itself."""
    parent = [UNREACHABLE] * g.n
    parent[s] = s
    queue = [s]
    for u in queue:
        for w in g.adj[u]:
            if parent[w] == UNREACHABLE:
                parent[w] = u
                queue.append(w)
    return parent


def _reach_table(
    g: Graph, cbits: int, bits: list[int], keep_levels: bool
) -> tuple[list[dict[int, list[int]]], list[int]]:
    """Levels of the all-pairs reach table, and the cover of all of them.

    levels[l] maps each mask of l colors, ascending, to a row: row[v] is the
    bitset of sources that reach v by a rainbow walk using exactly the colors
    in mask. Masks with an empty row are left out. cover[v] ORs every row.
    Expansion stops once every cover[v] is full or a level comes out empty.
    Only the last level is kept unless keep_levels is set.
    """
    n = g.n
    full = (1 << n) - 1
    by_color: list[list[Pair]] = [[] for _ in range(cbits)]
    for e, b in zip(g.edges, bits):
        by_color[b.bit_length() - 1].append(e)
    level = {0: [1 << v for v in range(n)]}
    levels = [level]
    cover = list(level[0])
    while level and any(c != full for c in cover):
        grown: dict[int, list[int]] = {}
        for mask, row in level.items():
            for c, edges in enumerate(by_color):
                b = 1 << c
                if mask & b or not edges:
                    continue
                out = grown.get(mask | b)
                if out is None:
                    out = grown[mask | b] = [0] * n
                for u, v in edges:
                    out[v] |= row[u]
                    out[u] |= row[v]
        level = {mask: row for mask, row in sorted(grown.items()) if any(row)}
        for row in level.values():
            cover = list(map(or_, cover, row))
        if keep_levels:
            levels.append(level)
        else:
            levels = [level]
    return levels, cover


def _color_adj(g: Graph, cbits: int, bits: list[int]) -> list[list[list[int]]]:
    """color_adj[c][v] lists the neighbors of v along edges of color bit c."""
    color_adj: list[list[list[int]]] = [[[] for _ in range(g.n)] for _ in range(cbits)]
    for (u, v), b in zip(g.edges, bits):
        color_adj[b.bit_length() - 1][u].append(v)
        color_adj[b.bit_length() - 1][v].append(u)
    return color_adj


def _walk_back(
    levels: list[dict[int, list[int]]], color_adj, t: int, sources: int
) -> dict[int, tuple[int, ...]]:
    """One shortest rainbow path to t from each source in the bitset sources.

    A path starts from the least mask at the first level whose row at t holds
    its source and steps back one color at a time, taking the least color and
    then the least neighbor along it whose row in the previous level holds the
    source. A shortest rainbow walk repeats no vertex, so each result is a
    path. Sources that take the same steps walk back together as one bitset;
    sources that no row holds are left out.
    """
    found = {}
    # Groups of sources still to walk back: (vertex, level, mask, sources,
    # path from the vertex to t).
    stack = []
    for length, level in enumerate(levels):
        for mask, row in level.items():
            hit = row[t] & sources
            if hit:
                stack.append((t, length, mask, hit, (t,)))
                sources ^= hit
    while stack:
        v, length, mask, group, path = stack.pop()
        if length == 0:
            found[v] = path
            continue
        prev = levels[length - 1]
        for c, adj in enumerate(color_adj):
            if not group:
                break
            b = 1 << c
            row = prev.get(mask ^ b) if mask & b else None
            if row is None:
                continue
            for w in adj[v]:
                hit = group & row[w]
                if hit:
                    stack.append((w, length - 1, mask ^ b, hit, (w,) + path))
                    group ^= hit
                    if not group:
                        break
    return found


def _witness_paths(
    g: Graph, cbits: int, bits: list[int], levels: list[dict[int, list[int]]]
) -> dict[Pair, tuple[int, ...]]:
    """One shortest rainbow path per pair (s, t), s < t, in ascending order."""
    color_adj = _color_adj(g, cbits, bits)
    to = [_walk_back(levels, color_adj, t, (1 << t) - 1) for t in range(g.n)]
    return {(s, t): to[t][s] for s in range(g.n) for t in range(s + 1, g.n)}


def least_failing_pair(
    g: Graph, cbits: int, bits: list[int], witnesses: dict | None = None
) -> Pair | None:
    """Least pair with no rainbow path, or None when all pairs have one.

    bits holds one color bit below 1 << cbits per edge of g.edges. When
    witnesses is a dict and every pair is connected, it receives one
    shortest rainbow path per pair (s, t), s < t, in ascending order.
    """
    n = g.n
    levels, cover = _reach_table(g, cbits, bits, witnesses is not None)
    full = (1 << n) - 1
    for s in range(n - 1):
        # Walks reverse, so cover[s] is also the set of vertices s reaches.
        missing = (full ^ cover[s]) >> (s + 1)
        if missing:
            return (s, s + (missing & -missing).bit_length())
    if witnesses is not None:
        witnesses.update(_witness_paths(g, cbits, bits, levels))
    return None


def _color_bits(seq: tuple[int, ...], cap_colors: int) -> tuple[int, list[int]] | None:
    """One bit per distinct color, labels compacted to 0..k-1, as (k, bits).

    None when every edge has its own color, since then no bitmask is needed.
    Otherwise raises CapExceeded when k exceeds cap_colors.
    """
    labels = sorted(set(seq))
    if len(labels) == len(seq):
        return None
    if len(labels) > cap_colors:
        raise CapExceeded(f"{len(labels)} colors exceed the verifier cap of {cap_colors}")
    bit = {c: 1 << i for i, c in enumerate(labels)}
    return len(labels), [bit[c] for c in seq]


def _all_distinct_scan(g: Graph, want_witnesses: bool) -> RainbowCertificate:
    # Every edge color is unique, so any shortest path is rainbow and plain
    # connectivity decides the verdict: a failure shows from source 0.
    witnesses: dict[Pair, tuple[int, ...]] = {}
    for s in range(g.n - 1):
        parent = _bfs_parents(g, s)
        if UNREACHABLE in parent:
            return RainbowCertificate(False, failing_pair=(s, parent.index(UNREACHABLE)))
        if not want_witnesses:
            return RainbowCertificate(True)
        for t in range(s + 1, g.n):
            witnesses[(s, t)] = tuple(_unwind(parent, t, s))
    return RainbowCertificate(True, witnesses=witnesses if want_witnesses else None)


def verify_rainbow_connected(
    g: Graph,
    coloring: EdgeColoring,
    *,
    cap_colors: int = DEFAULT_COLOR_CAP,
    want_witnesses: bool = True,
) -> RainbowCertificate:
    """Decide rainbow connectivity of g under coloring.

    The coloring must cover E(g) exactly (ColoringMismatch otherwise). When
    the coloring is not injective and uses more than cap_colors distinct
    colors the color-mask tables are refused with CapExceeded.
    """
    compact = _color_bits(coloring.as_sequence(g), cap_colors)
    if compact is None:
        return _all_distinct_scan(g, want_witnesses)
    witnesses = {} if want_witnesses else None
    failing = least_failing_pair(g, *compact, witnesses)
    if failing is not None:
        return RainbowCertificate(False, failing_pair=failing)
    return RainbowCertificate(True, witnesses=witnesses)


def rainbow_path(
    g: Graph,
    coloring: EdgeColoring,
    u: int,
    w: int,
    *,
    cap_colors: int = DEFAULT_COLOR_CAP,
) -> tuple[int, ...] | None:
    """One rainbow path from u to w, or None when no such path exists."""
    seq = coloring.as_sequence(g)
    if not (0 <= u < g.n) or not (0 <= w < g.n):
        raise IndexOutOfRange(f"pair ({u}, {w}) outside 0..{g.n - 1}")
    if u == w:
        return (u,)
    compact = _color_bits(seq, cap_colors)
    if compact is None:
        parent = _bfs_parents(g, u)
        return None if parent[w] == UNREACHABLE else tuple(_unwind(parent, w, u))
    levels, _ = _reach_table(g, *compact, True)
    return _walk_back(levels, _color_adj(g, *compact), w, 1 << u).get(u)


def check_witness(
    g: Graph, coloring: EdgeColoring, u: int, w: int, path: tuple[int, ...]
) -> bool:
    """Re-check one witness path from first principles.

    Raises ColoringMismatch when the coloring leaves an edge of the path
    uncolored; no other edge is looked at.
    """
    if not path or path[0] != u or path[-1] != w:
        return False
    if len(set(path)) != len(path):
        return False
    if any(not g.has_edge(a, b) for a, b in zip(path, path[1:])):
        return False
    colors = []
    for a, b in zip(path, path[1:]):
        e = (a, b) if a < b else (b, a)
        c = coloring.color_of.get(e)
        if c is None:
            raise ColoringMismatch(f"coloring does not cover path edge {e}")
        colors.append(c)
    return len(set(colors)) == len(colors)
