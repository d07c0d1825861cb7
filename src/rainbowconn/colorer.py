"""Structural classification of diameter-2 graphs and budgeted rainbow colorings.

Every connected graph of diameter at most 2 lands in exactly one class, and
each class has a construction with a color budget:

  complete-like            1 color
  bridged cut vertex       k + 2 colors for k bridges
  bridgeless cut vertex    3 colors
  two-connected            5 colors

The constructions color edges by role around a center vertex. They are backed
by an independent verifier: when a two-connected coloring fails verification,
the lifted partition of the same center is tried, then the next center, and
ConstructionFailure is raised if none verifies. Both cut-vertex classes share
one construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from .coloring import EdgeColoring
from .errors import (
    ConstructionFailure,
    IndexOutOfRange,
    OutOfScopeGraph,
    StructureViolation,
    WrongCase,
)
from .graph import (
    Edge,
    Graph,
    bfs_layers,
    bridges,
    build_graph,
    components,
    cut_vertices,
    diameter,
    is_connected,
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

    For connected diameter-2 graphs with a cut vertex, that vertex is unique
    and adjacent to every other vertex; violations of those guarantees raise
    StructureViolation because they contradict the class definitions.
    """
    if g.n == 0:
        return NotDiameterAtMost2()
    d = diameter(g)
    if d is None or d > 2:
        return NotDiameterAtMost2()
    if d <= 1:
        return CompleteLike()
    cuts = cut_vertices(g)
    if not cuts:
        return TwoConnected()
    if len(cuts) != 1:
        raise StructureViolation(
            f"diameter-2 graph with {len(cuts)} cut vertices: {cuts}"
        )
    v = cuts[0]
    if g.degree(v) != g.n - 1:
        raise StructureViolation(f"cut vertex {v} is not adjacent to every vertex")
    comps = components(g, without=v)
    k = len(bridges(g))
    trivial = sum(1 for c in comps if len(c) == 1)
    if k != trivial:
        raise StructureViolation(
            f"bridge count {k} does not match the {trivial} pendant components"
        )
    if k >= 1:
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
    """A verified coloring together with its budget and provenance."""

    coloring: EdgeColoring
    colors_used: int
    guarantee: int
    classification: Diam2Classification
    provenance: Provenance
    certificate: RainbowCertificate


def _finish_outcome(
    g: Graph,
    coloring: EdgeColoring,
    guarantee: int,
    cls: Diam2Classification,
    prov: Provenance,
) -> ColoringOutcome:
    cert = verify_rainbow_connected(g, coloring, want_witnesses=False)
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
    g: Graph, cls: BridgedCutVertex | BridgelessCutVertex
) -> ColoringOutcome:
    """Color a diameter-2 graph with a cut vertex inside its class budget.

    Bridges take distinct colors 1..k. A spanning forest 2-colors the
    vertices of the non-pendant components; with b = max(k, 1), center-left
    edges get b+1, center-right edges b+2, and internal edges reuse color 1.
    """
    v = cls.cut_vertex
    bridge_edges = bridges(g)
    mapping: dict[Edge, int] = {e: i for i, e in enumerate(bridge_edges, start=1)}
    k = len(bridge_edges)
    b = max(k, 1)
    subset = [u for comp in cls.components if len(comp) > 1 for u in comp]
    if not subset and g.m != k:
        raise StructureViolation("pendant-only graph has non-bridge edges")
    if subset:
        fb = spanning_forest_bipartition(g, subset, require_no_isolated=True)
        for e in g.edges:
            if e in mapping:
                continue
            a, c = e
            if a == v or c == v:
                other = c if a == v else a
                mapping[e] = b + 1 if other in fb.left else b + 2
            else:
                mapping[e] = 1
    coloring = EdgeColoring.from_map(mapping)
    prov = Provenance("bridged" if k else "cut-vertex", v, None, "base", 1, False)
    return _finish_outcome(g, coloring, b + 2, cls, prov)


def color_bridged(g: Graph, cls: BridgedCutVertex) -> ColoringOutcome:
    """Color a diameter-2 graph with k bridges inside its k+2 budget.

    Bridges take distinct colors 1..k; center-to-left edges get k+1,
    center-to-right k+2, and component-internal edges reuse color 1.
    """
    if classify(g) != cls:
        raise WrongCase("classification does not match the graph")
    return _color_cut_vertex(g, cls)


def color_cutvertex_bridgeless(g: Graph, cls: BridgelessCutVertex) -> ColoringOutcome:
    """Three colors when the graph is bridgeless with a cut vertex.

    The bridged scheme with no bridges: center-to-left edges get 2,
    center-to-right 3, and all internal edges share color 1.
    """
    if classify(g) != cls:
        raise WrongCase("classification does not match the graph")
    return _color_cut_vertex(g, cls)


# ---------------------------------------------------------------------------
# Two-connected partitions

# Vertex roles around a center, used to pick edge colors by role pair.
_C, _IL, _IR, _CL, _CR, _OB, _OLO, _ORO = range(8)

_ROLE_NAMES = {
    _C: "center",
    _IL: "inner-left",
    _IR: "inner-right",
    _CL: "core-left",
    _CR: "core-right",
    _OB: "outer-both",
    _OLO: "outer-left-only",
    _ORO: "outer-right-only",
}


@dataclass(frozen=True)
class NeighborhoodPartition:
    """Role assignment around one center of a 2-connected diameter-2 graph.

    The inner ring (neighbors of the center) splits into left and right
    sides. Outer-ring vertices that have outer-ring neighbors form the core,
    2-colored by a spanning forest; the remaining outer vertices are grouped
    by which inner sides they touch. After normalization the right-only group
    is empty, and each left-only vertex carries one designated accent edge.
    """

    style: str
    center: int
    inner_left: frozenset[int]
    inner_right: frozenset[int]
    core_left: frozenset[int]
    core_right: frozenset[int]
    outer_both: frozenset[int]
    outer_left_only: frozenset[int]
    outer_right_only: frozenset[int]
    accent_edge_of: tuple[tuple[int, Edge], ...]

    @property
    def core(self) -> frozenset[int]:
        return self.core_left | self.core_right

    def accent_map(self) -> dict[int, Edge]:
        return dict(self.accent_edge_of)


@dataclass(frozen=True)
class LinkGraph:
    """Contact graph on the inner ring, with the index-to-vertex table."""

    graph: Graph
    vertices: tuple[int, ...]


def _require_two_connected(g: Graph) -> None:
    if not is_two_connected(g):
        raise WrongCase("this construction needs a 2-connected graph")


def _outer_split(
    g: Graph, outer: frozenset[int], left: set[int], right: set[int]
) -> tuple[set[int], set[int], set[int]]:
    both: set[int] = set()
    left_only: set[int] = set()
    right_only: set[int] = set()
    for u in sorted(outer):
        nb = g.adj_sets[u]
        has_left = bool(nb & left)
        has_right = bool(nb & right)
        if has_left and has_right:
            both.add(u)
        elif has_left:
            left_only.add(u)
        elif has_right:
            right_only.add(u)
        else:
            raise StructureViolation(f"outer vertex {u} touches neither inner side")
    if left_only and right_only:
        # Two such vertices would sit at distance three or more.
        raise StructureViolation(
            "one-sided outer vertices on both sides in a diameter-2 graph"
        )
    return both, left_only, right_only


def _finish_partition(
    g: Graph,
    style: str,
    center: int,
    inner_left: set[int],
    inner_right: set[int],
    core_left: set[int],
    core_right: set[int],
    outer_rest: frozenset[int],
) -> NeighborhoodPartition:
    both, left_only, right_only = _outer_split(g, outer_rest, inner_left, inner_right)
    if not left_only and right_only:
        # Mirror the sides so the one-sided group always sits on the left.
        inner_left, inner_right = inner_right, inner_left
        core_left, core_right = core_right, core_left
        left_only, right_only = right_only, left_only
    accents: list[tuple[int, Edge]] = []
    for u in sorted(left_only):
        nb = g.adj_sets[u]
        if not nb <= inner_left:
            raise StructureViolation(
                f"one-sided outer vertex {u} has a neighbor outside the left side"
            )
        if len(nb) < 2:
            raise StructureViolation(
                f"outer vertex {u} has degree {len(nb)} in a 2-connected graph"
            )
        accents.append((u, normalize_edge(u, min(nb))))
    return NeighborhoodPartition(
        style,
        center,
        frozenset(inner_left),
        frozenset(inner_right),
        frozenset(core_left),
        frozenset(core_right),
        frozenset(both),
        frozenset(left_only),
        frozenset(right_only),
        tuple(accents),
    )


def partition_linked_outer(
    g: Graph, center: int, *, lift: bool = False
) -> NeighborhoodPartition:
    """Partition for centers whose outer ring spans at least one edge.

    The core (outer vertices with outer neighbors) is 2-colored by a spanning
    forest. Inner vertices adjacent to the core's left side go left, the rest
    of the core-adjacent ones go right, and each leftover inner vertex joins
    the side opposite a seeded neighbor, which always exists at diameter 2.
    With lift set, a core-right vertex with no inner-right neighbor first
    moves right its least inner-left neighbor that no core-left vertex needs.
    """
    _require_two_connected(g)
    layers = bfs_layers(g, center)
    if layers.eccentricity != 2:
        raise WrongCase(f"center {center} has eccentricity {layers.eccentricity}, not 2")
    ring1 = layers.layer(1)
    ring2 = frozenset(layers.layer(2))
    core = {u for u in ring2 if g.adj_sets[u] & ring2}
    if not core:
        raise WrongCase("outer ring is independent; use the contact construction")
    fb = spanning_forest_bipartition(g, core, require_no_isolated=True)
    core_left, core_right = set(fb.left), set(fb.right)
    inner_left: set[int] = set()
    inner_right: set[int] = set()
    leftovers: list[int] = []
    for u in ring1:
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
    seed_left = frozenset(inner_left)
    seed_right = frozenset(inner_right)
    for u in leftovers:
        nb = g.adj_sets[u]
        if nb & seed_right:
            inner_left.add(u)
        elif nb & seed_left:
            inner_right.add(u)
        else:
            raise StructureViolation(f"inner vertex {u} sees neither seeded side")
    return _finish_partition(
        g, "linked-outer", center, inner_left, inner_right, core_left, core_right,
        ring2 - core,
    )


def build_link_graph(g: Graph, center: int) -> LinkGraph:
    """Contact graph on the inner ring when the outer ring is independent.

    Two inner vertices are linked when they are adjacent or share an outer
    neighbor, that is, when the punctured graph joins them by a path of
    length at most 2 with its interior outside the inner ring. The result is
    connected for every center of a 2-connected diameter-2 graph.
    """
    _require_two_connected(g)
    layers = bfs_layers(g, center)
    if layers.eccentricity > 2:
        raise WrongCase(f"center {center} has eccentricity {layers.eccentricity}")
    ring1 = layers.layer(1)
    ring2 = frozenset(layers.layer(2))
    for u in ring2:
        if g.adj_sets[u] & ring2:
            raise WrongCase("outer ring spans an edge; use the linked-outer construction")
    index = {v: i for i, v in enumerate(ring1)}
    link_edges: set[Edge] = set()
    for a, b in g.edges:
        if a in index and b in index:
            link_edges.add(normalize_edge(index[a], index[b]))
    for u in sorted(ring2):
        nbrs = sorted(g.adj_sets[u])
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1 :]:
                link_edges.add(normalize_edge(index[a], index[b]))
    h = build_graph(len(ring1), link_edges)
    if not is_connected(h):
        raise StructureViolation("contact graph on the inner ring is disconnected")
    return LinkGraph(h, ring1)


def partition_contact(g: Graph, center: int) -> NeighborhoodPartition:
    """Partition for centers whose outer ring is an independent set.

    A spanning tree of the contact graph 2-colors the inner ring; the outer
    ring is then grouped by which inner sides it touches.
    """
    link = build_link_graph(g, center)
    fb = spanning_forest_bipartition(
        link.graph,
        range(link.graph.n),
        require_no_isolated=link.graph.n > 1,
    )
    inner_left = {link.vertices[i] for i in fb.left}
    inner_right = {link.vertices[i] for i in fb.right}
    layers = bfs_layers(g, center)
    ring2 = frozenset(layers.layer(2))
    return _finish_partition(
        g, "contact", center, inner_left, inner_right, set(), set(), ring2
    )


def build_partition(
    g: Graph, center: int, *, lift: bool = False
) -> NeighborhoodPartition:
    """Choose the partition style by probing the outer ring; only linked-outer lifts."""
    _require_two_connected(g)
    layers = bfs_layers(g, center)
    ring2 = frozenset(layers.layer(2)) if layers.eccentricity >= 2 else frozenset()
    if any(g.adj_sets[u] & ring2 for u in ring2):
        return partition_linked_outer(g, center, lift=lift)
    return partition_contact(g, center)


# ---------------------------------------------------------------------------
# Painting

# Color by unordered role pair. Linked-outer style uses the full five-color
# scheme; contact style needs only four plus accents. Role pairs absent from
# the tables cannot occur in the advertised structure, so hitting one is a
# structure violation, not bad input.

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


def _role_map(g: Graph, part: NeighborhoodPartition) -> list[int | None]:
    role: list[int | None] = [None] * g.n
    role[part.center] = _C
    for group, code in (
        (part.inner_left, _IL),
        (part.inner_right, _IR),
        (part.core_left, _CL),
        (part.core_right, _CR),
        (part.outer_both, _OB),
        (part.outer_left_only, _OLO),
        (part.outer_right_only, _ORO),
    ):
        for v in group:
            role[v] = code
    return role


def paint_partition(g: Graph, part: NeighborhoodPartition) -> EdgeColoring:
    """Assign colors to every edge from the role pair of its endpoints.

    Edges from a left-only outer vertex all run into the left side; the one
    designated accent edge gets color 5 and the rest get 4, which is what
    distinguishes round trips through such a vertex.
    """
    role = _role_map(g, part)
    table = _LINKED_TABLE if part.style == "linked-outer" else _CONTACT_TABLE
    accents = part.accent_map()
    mapping: dict[Edge, int] = {}
    for e in g.edges:
        a, b = e
        ra, rb = role[a], role[b]
        if ra is None or rb is None:
            raise StructureViolation(f"edge {e} touches a vertex with no role")
        key = (ra, rb) if ra <= rb else (rb, ra)
        if key == (_IL, _OLO):
            u = a if ra == _OLO else b
            mapping[e] = 5 if accents.get(u) == e else 4
            continue
        color = table.get(key)
        if color is None:
            raise StructureViolation(
                f"edge {e} joins {_ROLE_NAMES[ra]} to {_ROLE_NAMES[rb]},"
                " which the structure forbids"
            )
        mapping[e] = color
    return EdgeColoring.from_map(mapping)


# ---------------------------------------------------------------------------
# Two-connected construction with repair


def _center_partitions(g: Graph, center: int):
    """The base partition, then the lifted one when it differs, built lazily."""
    base = build_partition(g, center)
    yield "base", base
    lifted = build_partition(g, center, lift=True)
    if lifted != base:
        yield "lifted", lifted


def color_two_connected(
    g: Graph,
    *,
    center: int | None = None,
    try_all_centers: bool = False,
) -> ColoringOutcome:
    """Five colors for a 2-connected graph of diameter at most 2.

    Centers run in a fixed order: the requested (or lowest-index) center
    first, then the rest ascending. At each center the base partition is
    painted, and when it fails verification the lifted partition, if it
    differs. The first verified coloring wins; if none verifies,
    ConstructionFailure carries the first failing pair.
    """
    _require_two_connected(g)
    d = diameter(g)
    if d is None or d > 2:
        raise WrongCase(f"diameter {d} is outside this construction's case")
    if try_all_centers:
        center_order = list(range(g.n))
    else:
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
                return _finish_outcome(g, paint_partition(g, part), 5, cls, prov)
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
    """
    if center is not None and not 0 <= center < g.n:
        raise IndexOutOfRange(f"center {center} outside 0..{g.n - 1}")
    cls = classify(g)
    if isinstance(cls, NotDiameterAtMost2):
        d = diameter(g)
        if d is None:
            raise OutOfScopeGraph("coloring needs a connected graph")
        raise OutOfScopeGraph(f"diameter {d} is out of scope, only 2 or less is supported")
    if isinstance(cls, CompleteLike):
        coloring = EdgeColoring.from_map({e: 1 for e in g.edges})
        prov = Provenance("complete", None, None, "base", 1, False)
        if g.m == 0:
            cert = verify_rainbow_connected(g, coloring, want_witnesses=False)
            return ColoringOutcome(coloring, 0, 1, cls, prov, cert)
        return _finish_outcome(g, coloring, 1, cls, prov)
    if isinstance(cls, (BridgedCutVertex, BridgelessCutVertex)):
        return _color_cut_vertex(g, cls)
    return color_two_connected(g, center=center, try_all_centers=try_all_centers)
