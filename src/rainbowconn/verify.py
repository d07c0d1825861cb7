"""Independent verification that a coloring makes a graph rainbow connected.

A graph with colored edges is rainbow connected when every vertex pair is
joined by a path whose edge colors are pairwise distinct. Every check runs on
one search: a breadth-first search from a source over (vertex,
used-color-bitmask) states, which crosses off each target vertex as it reaches
it and stops once none is left. Its cost is bounded by n * 2^k states per
source, k being the number of distinct colors, regardless of path structure.
When every edge has its own color, any shortest path is rainbow, so a plain
breadth-first search decides instead and no color cap applies. The checker
never trusts the construction code: everything is recomputed from the graph
and the coloring alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import EdgeColoring
from .errors import CapExceeded, IndexOutOfRange
from .graph import Graph, UNREACHABLE

# Bitmask cap on distinct colors: states fit n * 2^16 in the worst case the
# API accepts.
DEFAULT_COLOR_CAP = 16

Pair = tuple[int, int]


@dataclass(frozen=True)
class RainbowCertificate:
    """Outcome of a verification run.

    connected is the verdict. When it is False, failing_pair holds the
    lexicographically least pair with no rainbow path. When witnesses were
    requested and the verdict is Connected, witnesses maps every pair (u, w)
    with u < w to one rainbow path, vertex list inclusive of both ends.
    """

    connected: bool
    failing_pair: Pair | None = None
    witnesses: dict[Pair, tuple[int, ...]] | None = None


def incidence(g: Graph) -> list[list[tuple[int, int]]]:
    """Per-vertex list of (neighbor, edge index), ascending by neighbor."""
    inc: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for idx, (u, v) in enumerate(g.edges):
        inc[u].append((v, idx))
        inc[v].append((u, idx))
    return inc


def _unwind(pred, end: int, start: int) -> list:
    """The chain from start to end, following pred backwards from end."""
    chain = [end]
    while chain[-1] != start:
        chain.append(pred[chain[-1]])
    chain.reverse()
    return chain


def _rainbow_search(
    inc, cbits: int, bits: list[int], s: int, targets: set[int], paths=None
) -> None:
    """Breadth-first search from s over states (v << cbits) | used-color mask.

    Removes each vertex it reaches from targets and stops once targets is
    empty. When paths is a dict, it receives for every target reached the
    rainbow path to the state that first reached it.
    """
    mask_all = (1 << cbits) - 1
    start = s << cbits
    seen = {start}
    queue = [start]
    pred = None if paths is None else {}
    for key in queue:
        mask = key & mask_all
        for w, e in inc[key >> cbits]:
            b = bits[e]
            if mask & b:
                continue
            nk = (w << cbits) | mask | b
            if nk in seen:
                continue
            seen.add(nk)
            queue.append(nk)
            if pred is not None:
                pred[nk] = key
            if w in targets:
                targets.remove(w)
                if pred is not None:
                    paths[w] = tuple(k >> cbits for k in _unwind(pred, nk, start))
                if not targets:
                    return


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


def pair_connected(inc, cbits: int, bits: list[int], s: int, t: int) -> bool:
    """Is there a rainbow path from s to t? Verdict only, early exit."""
    if s == t:
        return True
    targets = {t}
    _rainbow_search(inc, cbits, bits, s, targets)
    return not targets


def least_failing_pair(
    n: int, inc, cbits: int, bits: list[int], witnesses: dict | None = None
) -> Pair | None:
    """Least pair with no rainbow path, or None when all pairs have one.

    When witnesses is a dict, it receives one rainbow path per pair (s, t),
    s < t, in ascending order; it is complete only when None is returned.
    """
    for s in range(n - 1):
        targets = set(range(s + 1, n))
        paths = None if witnesses is None else {}
        _rainbow_search(inc, cbits, bits, s, targets, paths)
        if targets:
            return (s, min(targets))
        if paths is not None:
            witnesses.update(((s, t), paths[t]) for t in range(s + 1, n))
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
    colors the bitmask state space is refused with CapExceeded.
    """
    compact = _color_bits(coloring.as_sequence(g), cap_colors)
    if compact is None:
        return _all_distinct_scan(g, want_witnesses)
    witnesses = {} if want_witnesses else None
    failing = least_failing_pair(g.n, incidence(g), *compact, witnesses)
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
    paths: dict[int, tuple[int, ...]] = {}
    _rainbow_search(incidence(g), *compact, u, {w}, paths)
    return paths.get(w)


def check_witness(
    g: Graph, coloring: EdgeColoring, u: int, w: int, path: tuple[int, ...]
) -> bool:
    """Re-check one witness path from first principles."""
    if not path or path[0] != u or path[-1] != w:
        return False
    if len(set(path)) != len(path):
        return False
    if any(not g.has_edge(a, b) for a, b in zip(path, path[1:])):
        return False
    colors = [coloring.color(a, b) for a, b in zip(path, path[1:])]
    return len(set(colors)) == len(colors)
