"""Structural classification of diameter-2 graphs and budgeted rainbow colorings.

Every connected graph of diameter at most 2 lands in exactly one class, and
each class has a construction with a color budget:

  complete-like            1 color
  bridged cut vertex       k + 2 colors for k bridges
  bridgeless cut vertex    3 colors
  two-connected            5 colors

The class comes from the universal vertices, without a lowlink scan. In a
diameter-2 graph a cut vertex is adjacent to every other vertex, since two
vertices it separates can only share it as a common neighbor; so a graph
without exactly one universal vertex is two-connected. With exactly one, the
components left by deleting it decide the class, and its bridges are exactly
the edges to the single-vertex components.

The constructions color edges by role around a center vertex. For a
two-connected graph, build_partition is the one partition builder: the outer
ring (vertices at distance two) picks its style, linked-outer when that ring
spans an edge and contact when it is independent. Every coloring is checked by
an independent verifier: when a two-connected coloring fails, the lifted
partition of the same center is tried, then the next center, and
ConstructionFailure is raised if none verifies. Both cut-vertex classes share
one construction.

color_diam2 is the one construction entry point: it classifies the graph and
runs the construction of its class, so no construction checks the class again.

The two-connected construction runs only on a graph that is 2-connected with
diameter at most 2: color_diam2 knows it from the class, and build_partition,
which builds one partition on its own, checks it on entry. Nothing after that
needs a check:
  - each center has eccentricity at most 2, each outer vertex an inner neighbor;
  - the outer neighbors of a core vertex are core too, so the core has no
    isolated vertex, and an outer vertex outside it has only inner neighbors;
  - an inner vertex with no core neighbor shares an inner neighbor with each
    core vertex, so it sees a seeded side;
  - the contact graph is connected, since G minus the center is and each
    outer vertex on a path there sits between two inner vertices;
  - one-sided outer vertices on opposite sides would share no neighbor, so
    after mirroring all are left-only, with only inner-left neighbors and at
    least two of them (a 2-connected graph has no vertex of degree 1);
  - so every vertex has a role, and every edge's role pair is in its style's
    table or joins inner-left to left-only.
The verifier still checks every coloring, and _finish_outcome its budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterable

from .coloring import EdgeColoring
from .errors import (
    ConstructionFailure,
    IndexOutOfRange,
    OutOfScopeGraph,
    StructureViolation,
    WrongCase,
)
from .graph import (
    BfsLayers,
    Edge,
    Graph,
    bfs_layers,
    build_graph,
    components,
    diameter,
    is_two_connected,
    normalize_edge,
    spanning_forest_bipartition,
)
from .verify import RainbowCertificate, verify_rainbow_connected


# ---------------------------------------------------------------------------
# Classification


@dataclass(frozen=True)
class NotDiameterAtMost2:
    """Disconnected, or some pair sits at distance three or more."""

    tag: ClassVar[str] = "not-diameter-at-most-2"


@dataclass(frozen=True)
class CompleteLike:
    """Diameter at most 1: a single vertex, an edge, or a complete graph."""

    tag: ClassVar[str] = "complete-like"


@dataclass(frozen=True)
class BridgedCutVertex:
    """Diameter 2 with bridges: one universal cut vertex, pendants on bridges."""

    tag: ClassVar[str] = "bridged-cut-vertex"
    cut_vertex: int
    components: tuple[tuple[int, ...], ...]

    @property
    def trivial_components(self) -> tuple[tuple[int, ...], ...]:
        return tuple(c for c in self.components if len(c) == 1)

    @property
    def nontrivial_components(self) -> tuple[tuple[int, ...], ...]:
        return tuple(c for c in self.components if len(c) > 1)

    @property
    def bridge_count(self) -> int:
        return len(self.trivial_components)


@dataclass(frozen=True)
class BridgelessCutVertex:
    """Diameter 2, bridgeless, with one universal cut vertex."""

    tag: ClassVar[str] = "bridgeless-cut-vertex"
    cut_vertex: int
    components: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class TwoConnected:
    """Diameter 2 and free of cut vertices."""

    tag: ClassVar[str] = "two-connected"


Diam2Classification = (
    NotDiameterAtMost2
    | CompleteLike
    | BridgedCutVertex
    | BridgelessCutVertex
    | TwoConnected
)


def classify(g: Graph) -> Diam2Classification:
    """Place a graph into exactly one of the five structural classes.

    A cut vertex of a diameter-2 graph is adjacent to every other vertex: two
    vertices it separates are not adjacent, so it is their only common
    neighbor. A second universal vertex would keep the graph connected
    without the first, so a graph with no universal vertex or with two or
    more is two-connected. With exactly one, v, the components of the graph
    minus v decide: v is the cut vertex when there are two or more, and its
    bridges are the edges to the single-vertex components, since every other
    edge lies on a triangle through v. No lowlink scan is needed.
    """
    if g.n == 0:
        return NotDiameterAtMost2()
    d = diameter(g)
    if d is None or d > 2:
        return NotDiameterAtMost2()
    if d <= 1:
        return CompleteLike()
    top = g.n - 1
    universal = [v for v, nbrs in enumerate(g.adj) if len(nbrs) == top]
    if len(universal) != 1:
        return TwoConnected()
    v = universal[0]
    comps = components(g, without=v)
    if len(comps) == 1:
        return TwoConnected()
    if any(len(c) == 1 for c in comps):
        return BridgedCutVertex(v, comps)
    return BridgelessCutVertex(v, comps)


def guarantee_for(cls: Diam2Classification) -> int | None:
    """Color budget promised for a class, None outside the supported scope."""
    if isinstance(cls, CompleteLike):
        return 1
    if isinstance(cls, BridgedCutVertex):
        return cls.bridge_count + 2
    if isinstance(cls, BridgelessCutVertex):
        return 3
    if isinstance(cls, TwoConnected):
        return 5
    return None


# ---------------------------------------------------------------------------
# Outcome types


@dataclass(frozen=True)
class Provenance:
    """How a coloring was produced: construction route and repair effort.

    variant is "base", or "lifted" when a two-connected coloring came from
    the lifted partition of its center. forest_seed is always None; it stays
    so that reports and the benchmark keep their schema.
    """

    style: str
    center: int | None
    forest_seed: int | None
    variant: str
    attempts: int
    repair_used: bool


@dataclass(frozen=True)
class ColoringOutcome:
    """A verified coloring together with its budget and provenance.

    certificate is the verifier's verdict on the returned coloring; it holds
    one rainbow path per pair only when witnesses were asked for.
    """

    coloring: EdgeColoring
    colors_used: int
    guarantee: int
    classification: Diam2Classification
    provenance: Provenance
    certificate: RainbowCertificate


def _finish_outcome(
    g: Graph,
    coloring: EdgeColoring,
    cls: Diam2Classification,
    prov: Provenance,
    want_witnesses: bool = False,
) -> ColoringOutcome:
    guarantee = guarantee_for(cls)
    cert = verify_rainbow_connected(g, coloring, want_witnesses=want_witnesses)
    if not cert.connected:
        raise ConstructionFailure(
            f"{prov.style} construction failed verification at pair {cert.failing_pair}",
            graph=g,
            failing_pair=cert.failing_pair,
            attempts=prov.attempts,
        )
    used = coloring.colors_used
    if used > guarantee:
        raise StructureViolation(
            f"{prov.style} construction used {used} colors, budget is {guarantee}"
        )
    return ColoringOutcome(coloring, used, guarantee, cls, prov, cert)


# ---------------------------------------------------------------------------
# Cut-vertex constructions


def _color_cut_vertex(
    g: Graph, cls: BridgedCutVertex | BridgelessCutVertex, want_witnesses: bool = False
) -> ColoringOutcome:
    """Color a diameter-2 graph with a cut vertex inside its class budget.

    Bridges take distinct colors 1..k. A spanning forest 2-colors the
    vertices of the non-pendant components; with b = max(k, 1), center-left
    edges get b+1, center-right edges b+2, and internal edges reuse color 1.
    """
    v = cls.cut_vertex
    # The bridges join v to its pendant components, as classify shows; sorted,
    # they come in the order of bridges(g).
    bridge_edges = sorted(normalize_edge(v, c[0]) for c in cls.components if len(c) == 1)
    mapping: dict[Edge, int] = {e: i for i, e in enumerate(bridge_edges, start=1)}
    k = len(bridge_edges)
    b = max(k, 1)
    subset = [u for comp in cls.components if len(comp) > 1 for u in comp]
    fb = spanning_forest_bipartition(g, subset)
    for e in g.edges:
        if e in mapping:
            continue
        a, c = e
        if a == v or c == v:
            other = c if a == v else a
            mapping[e] = b + 1 if other in fb.left else b + 2
        else:
            mapping[e] = 1
    # The keys are normalized edges and the colors positive ints already.
    coloring = EdgeColoring(mapping, max(mapping.values(), default=0))
    prov = Provenance("bridged" if k else "cut-vertex", v, None, "base", 1, False)
    return _finish_outcome(g, coloring, cls, prov, want_witnesses)


# ---------------------------------------------------------------------------
# Two-connected partitions

# Vertex roles around a center, used to pick edge colors by role pair.
_C, _IL, _IR, _CL, _CR, _OB, _OLO = range(7)


@dataclass(frozen=True)
class NeighborhoodPartition:
    """Role assignment around one center of a 2-connected diameter-2 graph.

    The inner ring (neighbors of the center) splits into left and right
    sides. Outer-ring vertices that have outer-ring neighbors form the core,
    2-colored by a spanning forest; the remaining outer vertices are grouped
    by which inner sides they touch. The sides are mirrored when needed so
    that every one-sided outer vertex touches only the left side, and each
    such vertex carries one designated accent edge.
    """

    style: str
    center: int
    inner_left: frozenset[int]
    inner_right: frozenset[int]
    core_left: frozenset[int]
    core_right: frozenset[int]
    outer_both: frozenset[int]
    outer_left_only: frozenset[int]
    accent_edge_of: tuple[tuple[int, Edge], ...]


def _finish_partition(
    g: Graph,
    style: str,
    center: int,
    inner_left: set[int],
    inner_right: set[int],
    core_left: set[int],
    core_right: set[int],
    outer_rest: Iterable[int],
) -> NeighborhoodPartition:
    """Group the non-core outer vertices, given in ascending order, by the
    inner sides they touch, mirror the sides so the one-sided group sits on
    the left, and pick each one-sided vertex's accent edge."""
    both: set[int] = set()
    left_only: set[int] = set()
    right_only: set[int] = set()
    for u in outer_rest:
        nb = g.adj_sets[u]
        if not nb & inner_right:
            left_only.add(u)
        elif not nb & inner_left:
            right_only.add(u)
        else:
            both.add(u)
    if right_only:
        inner_left, inner_right = inner_right, inner_left
        core_left, core_right = core_right, core_left
        left_only = right_only
    accents = tuple((u, normalize_edge(u, min(g.adj_sets[u]))) for u in sorted(left_only))
    return NeighborhoodPartition(
        style,
        center,
        frozenset(inner_left),
        frozenset(inner_right),
        frozenset(core_left),
        frozenset(core_right),
        frozenset(both),
        frozenset(left_only),
        accents,
    )


def _partition_linked_outer(
    g: Graph, layers: BfsLayers, core: set[int], lift: bool
) -> NeighborhoodPartition:
    """Linked-outer style, for a center whose outer ring spans an edge.

    The core (outer vertices with outer neighbors) is 2-colored by a spanning
    forest. Inner vertices adjacent to the core's left side go left, the rest
    of the core-adjacent ones go right, and each leftover inner vertex joins
    the side opposite a seeded neighbor, which always exists at diameter 2.
    With lift set, a core-right vertex with no inner-right neighbor first
    moves right its least inner-left neighbor that no core-left vertex needs.
    """
    fb = spanning_forest_bipartition(g, core)
    core_left, core_right = set(fb.left), set(fb.right)
    inner_left: set[int] = set()
    inner_right: set[int] = set()
    leftovers: list[int] = []
    for u in layers.layer(1):
        nb = g.adj_sets[u]
        if nb & core_left:
            inner_left.add(u)
        elif nb & core_right:
            inner_right.add(u)
        else:
            leftovers.append(u)
    if lift:
        # With every core-left x next to IL and every core-right y next to IR,
        # each core pair has a rainbow path: x1 -4- IL -1- c -2- IR -5- y -3- x2,
        # its mirror, and x -4- IL -1- c -2- IR -5- y. The rule above gives x's half.
        for y in sorted(core_right):
            nb = g.adj_sets[y]
            if nb & inner_right:
                continue
            for a in sorted(nb & inner_left):
                if all(g.adj_sets[x] & inner_left - {a} for x in g.adj_sets[a] & core_left):
                    inner_left.remove(a)
                    inner_right.add(a)
                    break
    seed_right = frozenset(inner_right)
    for u in leftovers:
        if g.adj_sets[u] & seed_right:
            inner_left.add(u)
        else:
            inner_right.add(u)
    return _finish_partition(
        g, "linked-outer", layers.center, inner_left, inner_right, core_left,
        core_right, [u for u in layers.layer(2) if u not in core],
    )


def _partition_contact(g: Graph, layers: BfsLayers) -> NeighborhoodPartition:
    """Contact style, for a center whose outer ring is an independent set.

    Two inner vertices are linked when they are adjacent or share an outer
    neighbor. This contact graph is connected for every center of a
    2-connected diameter-2 graph, and a spanning tree of it 2-colors the
    inner ring.
    """
    ring1 = layers.layer(1)
    index = {v: i for i, v in enumerate(ring1)}
    link_edges = [(index[a], index[b]) for a, b in g.edges if a in index and b in index]
    for u in layers.layer(2):
        nbrs = sorted(g.adj_sets[u])
        for i, a in enumerate(nbrs):
            link_edges.extend((index[a], index[b]) for b in nbrs[i + 1 :])
    link = build_graph(len(ring1), link_edges)
    fb = spanning_forest_bipartition(link, range(link.n))
    return _finish_partition(
        g, "contact", layers.center, {ring1[i] for i in fb.left},
        {ring1[i] for i in fb.right}, set(), set(), layers.layer(2),
    )


def build_partition(
    g: Graph, center: int, *, lift: bool = False
) -> NeighborhoodPartition:
    """The role partition around one center of a 2-connected graph of
    diameter at most 2; any other graph raises WrongCase.

    The outer ring chooses the style: linked-outer when it spans an edge,
    contact when it is independent. Only linked-outer partitions lift. The
    result is what paint_partition takes.
    """
    if not is_two_connected(g) or diameter(g) > 2:
        raise WrongCase("this construction needs a 2-connected graph of diameter at most 2")
    return _build_partition(g, bfs_layers(g, center), lift)


def _build_partition(g: Graph, layers: BfsLayers, lift: bool) -> NeighborhoodPartition:
    ring2 = frozenset(layers.layer(2))
    core = {u for u in ring2 if g.adj_sets[u] & ring2}
    if core:
        return _partition_linked_outer(g, layers, core, lift)
    return _partition_contact(g, layers)


# ---------------------------------------------------------------------------
# Painting

# Color by unordered role pair. Linked-outer style uses the full five-color
# scheme; contact style needs only four plus accents. Role pairs absent from
# the tables do not occur in a partition from build_partition (see the module
# docstring).

_LINKED_TABLE = {
    (_C, _IL): 1,
    (_C, _IR): 2,
    (_IL, _IR): 3,
    (_IR, _OB): 3,
    (_CL, _CR): 3,
    (_IL, _OB): 4,
    (_IL, _CL): 4,
    (_IR, _CR): 5,
    (_IL, _IL): 5,
    (_IR, _IR): 5,
    (_CL, _CL): 5,
    (_CR, _CR): 5,
    (_IL, _CR): 5,
    (_IR, _CL): 5,
}

_CONTACT_TABLE = {
    (_C, _IL): 1,
    (_C, _IR): 2,
    (_IL, _IR): 3,
    (_IR, _OB): 3,
    (_IL, _OB): 4,
    (_IL, _IL): 4,
    (_IR, _IR): 4,
}


def _role_map(g: Graph, part: NeighborhoodPartition) -> list[int]:
    # The groups cover every vertex but the center.
    role = [_C] * g.n
    for group, code in (
        (part.inner_left, _IL),
        (part.inner_right, _IR),
        (part.core_left, _CL),
        (part.core_right, _CR),
        (part.outer_both, _OB),
        (part.outer_left_only, _OLO),
    ):
        for v in group:
            role[v] = code
    return role


def paint_partition(g: Graph, part: NeighborhoodPartition) -> EdgeColoring:
    """Assign colors to every edge from the role pair of its endpoints.

    part comes from build_partition on the same graph. Edges from a left-only
    outer vertex all run into the left side; the one designated accent edge
    gets color 5 and the rest get 4, which is what distinguishes round trips
    through such a vertex.
    """
    role = _role_map(g, part)
    table = _LINKED_TABLE if part.style == "linked-outer" else _CONTACT_TABLE
    accents = dict(part.accent_edge_of)
    mapping: dict[Edge, int] = {}
    for e in g.edges:
        a, b = e
        ra, rb = role[a], role[b]
        key = (ra, rb) if ra <= rb else (rb, ra)
        if key == (_IL, _OLO):
            u = a if ra == _OLO else b
            mapping[e] = 5 if accents.get(u) == e else 4
        else:
            mapping[e] = table[key]
    # The keys are edges of g, so normalized, and the tables hold colors 1..5.
    return EdgeColoring(mapping, max(mapping.values(), default=0))


# ---------------------------------------------------------------------------
# Two-connected construction with repair


def _center_partitions(g: Graph, center: int):
    """The base partition, then the lifted one when it differs, built lazily
    from one BFS of the center."""
    layers = bfs_layers(g, center)
    base = _build_partition(g, layers, False)
    yield "base", base
    lifted = _build_partition(g, layers, True)
    if lifted != base:
        yield "lifted", lifted


def _color_two_connected(
    g: Graph, center: int | None, want_witnesses: bool
) -> ColoringOutcome:
    """Five colors for a graph known to be 2-connected with diameter at most 2.

    Centers run in a fixed order: the requested (or lowest-index) center
    first, then the rest ascending. At each center the base partition is
    painted, and when it fails verification the lifted partition, if it
    differs. The first verified coloring wins; if none verifies,
    ConstructionFailure carries the first failing pair. With want_witnesses
    the verification that accepts the coloring also collects its witnesses.
    """
    first = 0 if center is None else center
    center_order = [first] + [v for v in range(g.n) if v != first]
    cls = TwoConnected()
    attempts = 0
    first_fail: tuple[int, int] | None = None
    for c in center_order:
        for variant, part in _center_partitions(g, c):
            attempts += 1
            prov = Provenance(part.style, c, None, variant, attempts, attempts > 1)
            try:
                return _finish_outcome(
                    g, paint_partition(g, part), cls, prov, want_witnesses
                )
            except ConstructionFailure as exc:
                if first_fail is None:
                    first_fail = exc.failing_pair
    raise ConstructionFailure(
        "no verified five-color construction found",
        graph=g,
        failing_pair=first_fail,
        attempts=attempts,
    )


# ---------------------------------------------------------------------------
# Dispatcher


def color_diam2(
    g: Graph,
    *,
    center: int | None = None,
    try_all_centers: bool = False,
) -> ColoringOutcome:
    """Classify and color any connected graph of diameter at most 2.

    The returned outcome always carries a verified certificate, the class
    guarantee, and the provenance of the construction; colors_used never
    exceeds the guarantee. A center outside 0..n-1 raises IndexOutOfRange
    whatever the class; only the two-connected construction reads it.
    try_all_centers=True stands for center=None, whose order already runs
    every center from 0 up; the keyword stays for callers that pass it.
    """
    return _color_classified(
        g, classify(g), center=center, try_all_centers=try_all_centers
    )


def _color_classified(
    g: Graph,
    cls: Diam2Classification,
    *,
    center: int | None = None,
    try_all_centers: bool = False,
    want_witnesses: bool = False,
) -> ColoringOutcome:
    """color_diam2 for a caller that has already classified g; with
    want_witnesses the certificate also holds the witnesses."""
    if center is not None and not 0 <= center < g.n:
        raise IndexOutOfRange(f"center {center} outside 0..{g.n - 1}")
    if try_all_centers:
        center = None
    if isinstance(cls, NotDiameterAtMost2):
        d = diameter(g)
        if d is None:
            raise OutOfScopeGraph("coloring needs a connected graph")
        raise OutOfScopeGraph(f"diameter {d} is out of scope, only 2 or less is supported")
    if isinstance(cls, CompleteLike):
        coloring = EdgeColoring.from_map({e: 1 for e in g.edges})
        prov = Provenance("complete", None, None, "base", 1, False)
        return _finish_outcome(g, coloring, cls, prov, want_witnesses)
    if isinstance(cls, (BridgedCutVertex, BridgelessCutVertex)):
        return _color_cut_vertex(g, cls, want_witnesses)
    return _color_two_connected(g, center, want_witnesses)
