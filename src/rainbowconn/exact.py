"""Exact rainbow connection number by a depth-first search with forward checking.

Levels run from a structural lower bound upward; the first level with a
rainbow coloring pins the answer. A rainbow path with at most l colors has at
most l edges, so level l first lists, for every vertex pair, its simple paths
of at most l edges as tuples of edge indices. Adjacent pairs are then
dropped, since their edge is a rainbow path. A depth-first search colors the
edges in g.edges order, each with a color at most one above the largest so
far and at most l. That visits one coloring per renaming class; colorings
with fewer than l colors are harmless, since the lower levels are refuted.
The search checks forward: a listed path dies once two of its colored edges
share a color, and the branch is cut as soon as some pair has no live path.
Only subtrees without a rainbow coloring are cut and colors are tried in
ascending order, so the first coloring found is the lexicographically least
canonical one. The search is iterative, so no edge count hits the recursion
limit, and the verifier re-checks a found coloring before it is returned.

A search step is one listed path or one search node (one color tried on one
edge); the budget bounds their sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .coloring import EdgeColoring
from .colorer import BridgedCutVertex, classify, color_diam2
from .errors import OutOfScopeGraph, StructureViolation
from .graph import Graph, diameter
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
    fewer. colorings_tested counts the search steps spent, which is what the
    budget bounds: one per listed path and one per search node, a color
    tried on an edge. Forward checking cuts nodes, not listed paths.
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

    The diameter always bounds from below. A diameter-2 graph with bridges
    has one universal cut vertex with a pendant on each bridge (see
    classify), and the only path between two pendants is their two bridges,
    so the bridges need distinct colors and their count bounds from below.
    """
    if g.n <= 1:
        return 0
    d = diameter(g)
    if d is None:
        raise OutOfScopeGraph("lower bound needs a connected graph")
    cls = classify(g)
    if isinstance(cls, BridgedCutVertex):
        return max(2, cls.bridge_count)
    return d


class _Steps:
    """Search steps counted against the budget: one per listed path and one
    per search node, so the budget keeps its meaning however many nodes
    forward checking cuts."""

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


def _listed_paths(g: Graph, level: int, steps: _Steps) -> list[list[tuple[int, ...]]] | None:
    """The simple paths of at most level edges of each non-adjacent pair.

    Paths are tuples of edge indices. Every path listed costs one step, those
    of adjacent pairs too, although an adjacent pair is dropped afterwards:
    its edge is already a rainbow path. None when the budget runs out while
    listing.
    """
    edge_id = {e: i for i, e in enumerate(g.edges)}
    listed: list[list[tuple[int, ...]]] = []
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
        near = g.adj_sets[s]
        listed.extend(ps for t, ps in paths.items() if t not in near)
    return listed


def _search_level(g: Graph, level: int, steps: _Steps) -> tuple[list[int] | None, bool]:
    """Search one level by forward checking; returns (winning colors or None,
    budget hit).

    Each listed path carries the mask of the colors on its colored edges, and
    each pair the count of its live paths, those with no repeated color yet.
    Coloring edge d with c kills every live path through d whose mask holds
    c and adds c to the masks of the others; a dead path stores its mask
    complemented, so it reads negative. The branch is cut as soon as a pair
    has no live path left. undo[d] logs the paths the color at depth d grew
    or killed, and is undone before the next color and on backtrack; a path
    is logged at most once per depth, so the order of undoing is free.
    """
    listed = _listed_paths(g, level, steps)
    if listed is None:
        return None, True
    # A non-adjacent pair without a path of at most level edges refutes the
    # level before any node is visited.
    if not all(listed):
        return None, False
    pair_of: list[int] = []
    through: list[list[int]] = [[] for _ in range(g.m)]
    for q, paths in enumerate(listed):
        for path in paths:
            for e in path:
                through[e].append(len(pair_of))
            pair_of.append(q)
    mask = [0] * len(pair_of)
    live = list(map(len, listed))
    colors = [0] * g.m
    # top[d] is the largest color among edges 0..d-1.
    top = [0] * (g.m + 1)
    undo: list[tuple[int, list[int], list[int]] | None] = [None] * g.m
    d = 0
    while d >= 0:
        log = undo[d]
        if log is not None:
            bit, grown, killed = log
            for p in grown:
                mask[p] ^= bit
            for p in killed:
                mask[p] = ~mask[p]
                live[pair_of[p]] += 1
            undo[d] = None
        c = colors[d] + 1
        if c > top[d] + 1 or c > level:
            colors[d] = 0
            d -= 1
            continue
        if not steps.take():
            return None, True
        colors[d] = c
        bit = 1 << c
        grown, killed = [], []
        undo[d] = (bit, grown, killed)
        for p in through[d]:
            mk = mask[p]
            if mk < 0:
                continue
            if mk & bit:
                mask[p] = ~mk
                killed.append(p)
                q = pair_of[p]
                live[q] -= 1
                if not live[q]:
                    break
            else:
                mask[p] = mk | bit
                grown.append(p)
        else:
            # Every pair kept a live path: descend.
            top[d + 1] = max(top[d], c)
            d += 1
            if d == g.m:
                return colors, False
    return None, False


def _upper_bound_coloring(g: Graph) -> tuple[int, EdgeColoring]:
    d = diameter(g)
    if d is not None and d <= 2:
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
    if g.n <= 1:
        return RcResult(0, 0, 0, 0, False, EdgeColoring.from_map({}))
    if diameter(g) is None:
        raise OutOfScopeGraph("exact search needs a connected graph")
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
