"""Exact rainbow connection number by a pruned depth-first search.

Levels run from a structural lower bound upward; the first level with a
rainbow coloring pins the answer. A rainbow path with at most l colors has at
most l edges, so level l first lists, for every vertex pair, its simple paths
of at most l edges as tuples of edge indices. A depth-first search then colors
the edges in g.edges order, each with a color at most one above the largest
so far and at most l. That visits one coloring per renaming class; colorings
with fewer than l colors are harmless, since the lower levels are refuted.
Each pair is checked once the last edge of its listed paths is colored, and
the branch is cut when none of those paths is rainbow. Colors are tried in
ascending order, so the first coloring found is the lexicographically least
canonical one. The search is iterative, so no edge count hits the recursion
limit, and the verifier re-checks a found coloring before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .coloring import EdgeColoring
from .errors import OutOfScopeGraph, StructureViolation
from .graph import Graph, bridges, cut_vertices, diameter, is_connected
from .verify import verify_rainbow_connected

# How often the optional progress callback fires, in search steps.
PROGRESS_INTERVAL = 1 << 20

DEFAULT_BUDGET = 50_000_000

# Full search is refused above this edge count unless the caller raises it:
# the number of listed paths and search nodes grows too fast beyond it.
DEFAULT_MAX_EDGES_FULL = 20


@dataclass(frozen=True)
class RcResult:
    """Either an exact rainbow connection number or a bracketing interval.

    exact is None when the search stopped early; lower <= upper always, and
    witness (when present) is a verified coloring using upper colors or
    fewer. colorings_tested counts the search steps spent, listed paths plus
    search nodes, which is what the budget bounds.
    """

    lower: int
    upper: int
    exact: int | None
    colorings_tested: int
    budget_exhausted: bool
    witness: EdgeColoring | None

    @property
    def is_exact(self) -> bool:
        return self.exact is not None


def rc_lower_bound(g: Graph) -> int:
    """Cheap structural lower bound for the rainbow connection number.

    The diameter always bounds from below. When the diameter is at most 2 and
    the graph has a cut vertex, every bridge hangs a pendant off that vertex
    and any two pendant-to-pendant paths force distinct bridge colors, so the
    bridge count bounds from below as well.
    """
    if not is_connected(g):
        raise OutOfScopeGraph("lower bound needs a connected graph")
    if g.n <= 1:
        return 0
    if g.is_complete():
        return 1
    d = diameter(g)
    assert d is not None
    if d <= 2 and cut_vertices(g):
        return max(d, len(bridges(g)))
    return d


class _Steps:
    """Listed paths plus search nodes, counted against the budget."""

    def __init__(self, budget: int, progress: Callable[[int], None] | None):
        self.count = 0
        self.budget = budget
        self.progress = progress

    def take(self) -> bool:
        """Count one step, or return False when the budget is spent."""
        if self.count >= self.budget:
            return False
        self.count += 1
        if self.progress is not None and self.count % PROGRESS_INTERVAL == 0:
            self.progress(self.count)
        return True


def _checks_by_depth(g: Graph, level: int, steps: _Steps) -> list[list[list]] | None:
    """For each edge index d, the path lists of the pairs checked at depth d.

    A pair's list holds its simple paths of at most level edges, as tuples of
    edge indices, and the pair is checked at the largest index among them. A
    pair without such a path gets an empty list at depth 0, which refutes the
    level there. None when the budget runs out while listing.
    """
    edge_id = {e: i for i, e in enumerate(g.edges)}
    checks: list[list[list]] = [[] for _ in range(g.m)]
    for s in range(g.n):
        paths: dict[int, list[tuple[int, ...]]] = {t: [] for t in range(s + 1, g.n)}
        stack = [(s, (), 1 << s)]
        while stack:
            v, path, seen = stack.pop()
            for w in g.adj[v]:
                if seen >> w & 1:
                    continue
                p = path + (edge_id[(v, w) if v < w else (w, v)],)
                if w > s:
                    if not steps.take():
                        return None
                    paths[w].append(p)
                if len(p) < level:
                    stack.append((w, p, seen | 1 << w))
        for listed in paths.values():
            checks[max(map(max, listed), default=0)].append(listed)
    return checks


def _search_level(g: Graph, level: int, steps: _Steps) -> tuple[list[int] | None, bool]:
    """Search one level; returns (winning colors or None, budget hit)."""
    checks = _checks_by_depth(g, level, steps)
    if checks is None:
        return None, True
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
        if not steps.take():
            return None, True
        colors[d] = c
        if all(
            any(len({colors[e] for e in p}) == len(p) for p in listed)
            for listed in checks[d]
        ):
            top[d + 1] = max(top[d], c)
            d += 1
            if d == g.m:
                return colors, False
    return None, False


def _upper_bound_coloring(g: Graph) -> tuple[int, EdgeColoring]:
    d = diameter(g)
    if d is not None and d <= 2:
        from .colorer import color_diam2

        outcome = color_diam2(g)
        return outcome.colors_used, outcome.coloring
    return g.m, EdgeColoring.from_sequence(g, range(1, g.m + 1))


def exact_rc(
    g: Graph,
    *,
    budget: int = DEFAULT_BUDGET,
    max_colors: int | None = None,
    max_edges_full: int = DEFAULT_MAX_EDGES_FULL,
    progress: Callable[[int], None] | None = None,
) -> RcResult:
    """Exact rainbow connection number, or bounds when the search is cut off.

    The search is cut off by the step budget, by max_colors, or up front
    when the graph has more than max_edges_full edges. In every cutoff case
    the returned lower bound counts the levels proven impossible and the
    upper bound comes from a verified coloring. progress, when given,
    receives the step count every PROGRESS_INTERVAL steps.
    """
    if not is_connected(g):
        raise OutOfScopeGraph("exact search needs a connected graph")
    if g.n <= 1:
        return RcResult(0, 0, 0, 0, False, EdgeColoring.from_map({}))
    steps = _Steps(budget, progress)
    level = rc_lower_bound(g)
    exhausted = False
    while g.m <= max_edges_full and (max_colors is None or level <= max_colors):
        colors, exhausted = _search_level(g, level, steps)
        if colors is not None:
            witness = EdgeColoring.from_sequence(g, colors)
            cert = verify_rainbow_connected(g, witness, cap_colors=level, want_witnesses=False)
            if not cert.connected:
                raise StructureViolation(f"search coloring fails at {cert.failing_pair}")
            return RcResult(level, level, level, steps.count, False, witness)
        if exhausted:
            break
        # Level m allows the all-distinct coloring, which any connected
        # graph passes, so the loop ends by then.
        assert level < g.m, "level search ran past the edge count"
        level += 1
    upper, witness = _upper_bound_coloring(g)
    return RcResult(level, max(upper, level), None, steps.count, exhausted, witness)
