"""Exact rainbow connection number by canonical brute force.

Colorings are enumerated as restricted growth strings over the sorted edge
list: the first edge gets color 1 and color j+1 may appear only after color j
has. That visits exactly one representative per color-renaming class, so level
c checks S(m, c) candidates (Stirling number) instead of c^m. Levels run from
a structural lower bound upward; the first verified coloring pins the answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .coloring import EdgeColoring
from .errors import OutOfScopeGraph
from .graph import Graph, bridges, cut_vertices, diameter, is_connected
from .verify import incidence, least_failing_pair, pair_connected

# How often the optional progress callback fires, in candidates tested.
PROGRESS_INTERVAL = 1 << 20

DEFAULT_BUDGET = 50_000_000

# Full search is refused above this edge count unless the caller raises it:
# level sizes grow like Stirling numbers and stop being searchable.
DEFAULT_MAX_EDGES_FULL = 20


@dataclass(frozen=True)
class RcResult:
    """Either an exact rainbow connection number or a bracketing interval.

    exact is None when the search stopped early; lower <= upper always, and
    witness (when present) is a verified coloring using upper colors or
    fewer.
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


def restricted_growth_strings(length: int, classes: int) -> Iterator[tuple[int, ...]]:
    """Yield, lexicographically, the strings of a given length with values in
    1..classes, first value 1, each value at most one more than the running
    maximum, and exactly `classes` distinct values used."""
    if classes < 1 or classes > length:
        return
    s = [1] * length
    tail = length - (classes - 1)
    for j in range(classes - 1):
        s[tail + j] = 2 + j
    prefix_max = [0] * (length + 1)
    for i in range(length):
        prefix_max[i + 1] = max(prefix_max[i], s[i])
    while True:
        yield tuple(s)
        i = length - 1
        moved = False
        while i > 0:
            pm = prefix_max[i]
            cap = pm + 1 if pm + 1 < classes else classes
            rest = length - 1 - i
            need_max = classes - rest
            v = s[i] + 1
            if pm < need_max and v < need_max:
                v = need_max
            if v <= cap:
                s[i] = v
                new_max = pm if pm >= v else v
                need = classes - new_max
                for j in range(i + 1, length - need):
                    s[j] = 1
                for j in range(need):
                    s[length - need + j] = new_max + 1 + j
                for j in range(i, length):
                    pmj = prefix_max[j]
                    sj = s[j]
                    prefix_max[j + 1] = pmj if pmj >= sj else sj
                moved = True
                break
            i -= 1
        if not moved:
            return


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


def _search_level(
    g: Graph,
    classes: int,
    budget: int,
    tested_before: int,
    progress: Callable[[int], None] | None,
) -> tuple[tuple[int, ...] | None, int, bool]:
    """Scan one level; returns (winning colors, tested count, budget hit).

    Rejection is cheap for most candidates: the most recently failing pair is
    rechecked first and usually still fails, skipping the all-pairs scan.
    """
    inc = incidence(g)
    tested = 0
    cached: tuple[int, int] | None = None
    for colors in restricted_growth_strings(g.m, classes):
        if tested >= budget:
            return None, tested, True
        tested += 1
        if progress is not None and (tested_before + tested) % PROGRESS_INTERVAL == 0:
            progress(tested_before + tested)
        bits = [1 << (c - 1) for c in colors]
        if cached is not None and not pair_connected(inc, classes, bits, *cached):
            continue
        failing = least_failing_pair(g, classes, bits)
        if failing is None:
            return colors, tested, False
        cached = failing
    return None, tested, False


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

    The search is cut off by the candidate budget, by max_colors, or up front
    when the graph has more than max_edges_full edges. In every cutoff case
    the returned lower bound counts the levels proven impossible and the
    upper bound comes from a verified coloring.
    """
    if not is_connected(g):
        raise OutOfScopeGraph("exact search needs a connected graph")
    if g.n <= 1:
        return RcResult(0, 0, 0, 0, False, EdgeColoring.from_map({}))
    lower = rc_lower_bound(g)
    if g.m > max_edges_full:
        upper, witness = _upper_bound_coloring(g)
        return RcResult(lower, upper, None, 0, False, witness)
    tested_total = 0
    level = max(lower, 1)
    while True:
        if max_colors is not None and level > max_colors:
            upper, witness = _upper_bound_coloring(g)
            return RcResult(level, max(upper, level), None, tested_total, False, witness)
        colors, tested, exhausted = _search_level(
            g, level, budget - tested_total, tested_total, progress
        )
        tested_total += tested
        if colors is not None:
            witness = EdgeColoring.from_sequence(g, colors)
            return RcResult(level, level, level, tested_total, False, witness)
        if exhausted:
            upper, witness = _upper_bound_coloring(g)
            return RcResult(level, max(upper, level), None, tested_total, True, witness)
        # Level m has the single all-distinct candidate, which any connected
        # graph passes, so the loop terminates.
        assert level < g.m, "level search ran past the edge count"
        level += 1
