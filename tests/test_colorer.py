"""Classification, partitioning, and the guaranteed-budget constructions."""

import ast
import random
from pathlib import Path

import pytest
from hypothesis import given, settings

import strategies
from oracles import brute_bridges, brute_cut_vertices, naive_rainbow_connected

from rainbowconn import (
    BridgedCutVertex,
    BridgelessCutVertex,
    CompleteLike,
    ConstructionFailure,
    EdgeColoring,
    IndexOutOfRange,
    NotDiameterAtMost2,
    OutOfScopeGraph,
    RainbowError,
    TwoConnected,
    WrongCase,
    bridges,
    build_graph,
    classify,
    color_diam2,
    complete,
    complete_bipartite,
    cut_vertices,
    cycle,
    diameter,
    guarantee_for,
    petersen,
    random_diam2,
    star,
    tight_example,
    verify_rainbow_connected,
    wheel,
)
from rainbowconn import colorer
from rainbowconn.colorer import build_partition, paint_partition
from rainbowconn.errors import GenerationFailed
from rainbowconn.graph import spanning_forest_bipartition


def windmill(t: int):
    """t triangles glued at vertex 0."""
    edges = []
    for i in range(t):
        a, b = 1 + 2 * i, 2 + 2 * i
        edges += [(0, a), (0, b), (a, b)]
    return build_graph(1 + 2 * t, edges)


def apex_blobs(*blob_sizes: int):
    """An apex joined to several disjoint paths, one cut vertex and no bridges."""
    edges = []
    v = 1
    for size in blob_sizes:
        block = list(range(v, v + size))
        for u in block:
            edges.append((0, u))
        for a, b in zip(block, block[1:]):
            edges.append((a, b))
        v += size
    return build_graph(v, edges)


def cycle_completion(n: int, seed: int):
    """A shuffled Hamiltonian cycle plus random chords, each joining two
    vertices at distance three or more, until the diameter is 2."""
    rng = random.Random(seed)
    adj = [set() for _ in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    for a, b in zip(order, order[1:] + order[:1]):
        adj[a].add(b)
        adj[b].add(a)
    while True:
        far = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if v not in adj[u] and not adj[u] & adj[v]
        ]
        if not far:
            return build_graph(n, [(u, v) for u in range(n) for v in adj[u] if u < v])
        u, v = rng.choice(far)
        adj[u].add(v)
        adj[v].add(u)


# ---------------------------------------------------------------------------
# classify / guarantee_for


def test_classify_out_of_scope():
    assert isinstance(classify(build_graph(0, [])), NotDiameterAtMost2)
    assert isinstance(classify(cycle(6)), NotDiameterAtMost2)
    assert isinstance(classify(build_graph(4, [(0, 1), (2, 3)])), NotDiameterAtMost2)


def test_classify_complete_like():
    assert isinstance(classify(build_graph(1, [])), CompleteLike)
    assert isinstance(classify(build_graph(2, [(0, 1)])), CompleteLike)
    assert isinstance(classify(complete(5)), CompleteLike)


def test_classify_star():
    cls = classify(star(4))
    assert isinstance(cls, BridgedCutVertex)
    assert cls.cut_vertex == 0
    assert cls.bridge_count == 4
    assert len(cls.components) == 4
    assert cls.nontrivial_components == ()


def test_classify_tight_example():
    cls = classify(tight_example(2, 3))
    assert isinstance(cls, BridgedCutVertex)
    assert cls.bridge_count == 2
    assert len(cls.nontrivial_components) == 3
    assert all(len(c) == 2 for c in cls.nontrivial_components)


def test_classify_windmill():
    cls = classify(windmill(3))
    assert isinstance(cls, BridgelessCutVertex)
    assert cls.cut_vertex == 0
    assert len(cls.components) == 3


def test_classify_two_connected():
    for g in (cycle(4), cycle(5), petersen(), wheel(6), complete_bipartite(2, 3)):
        assert isinstance(classify(g), TwoConnected)


def test_classify_tags():
    assert classify(star(2)).tag == "bridged-cut-vertex"
    assert classify(windmill(2)).tag == "bridgeless-cut-vertex"
    assert classify(complete(3)).tag == "complete-like"
    assert classify(cycle(5)).tag == "two-connected"
    assert classify(cycle(7)).tag == "not-diameter-at-most-2"


@settings(max_examples=80)
@given(strategies.graphs(max_n=7))
def test_classify_agrees_with_brute_structure(g):
    d = diameter(g)
    cls = classify(g)
    if d is None or d > 2:
        assert isinstance(cls, NotDiameterAtMost2)
        return
    if d <= 1:
        assert isinstance(cls, CompleteLike)
        return
    cuts = brute_cut_vertices(g)
    if not cuts:
        assert isinstance(cls, TwoConnected)
        return
    # diameter 2 forces a unique, universal cut vertex
    assert len(cuts) == 1
    assert isinstance(cls, (BridgedCutVertex, BridgelessCutVertex))
    assert cls.cut_vertex == cuts[0]
    if isinstance(cls, BridgedCutVertex):
        assert cls.bridge_count == len(brute_bridges(g)) > 0
    else:
        assert brute_bridges(g) == []


def test_classify_matches_the_lowlink_scan_on_atlas():
    # classify reads the class off the universal vertex; the lowlink scan
    # behind cut_vertices and bridges must agree on every connected
    # diameter-2 graph with at most 7 vertices, and the bridged construction
    # must give the bridges of bridges(g) the colors 1..k in that order.
    nx = pytest.importorskip("networkx")
    checked = 0
    for h in nx.graph_atlas_g():
        g = build_graph(h.number_of_nodes(), h.edges())
        if diameter(g) != 2:
            continue
        checked += 1
        cls = classify(g)
        cuts, found = cut_vertices(g), bridges(g)
        if not cuts:
            assert isinstance(cls, TwoConnected), sorted(h.edges())
            continue
        assert isinstance(cls, BridgedCutVertex if found else BridgelessCutVertex)
        assert (cls.cut_vertex,) == cuts
        assert getattr(cls, "bridge_count", 0) == len(found)
        coloring = color_diam2(g).coloring
        assert [coloring.color(*e) for e in found] == list(range(1, len(found) + 1))
    assert checked == 451


def test_guarantee_values():
    assert guarantee_for(classify(complete(4))) == 1
    assert guarantee_for(classify(star(3))) == 5
    assert guarantee_for(classify(tight_example(1, 2))) == 3
    assert guarantee_for(classify(windmill(2))) == 3
    assert guarantee_for(classify(petersen())) == 5
    assert guarantee_for(classify(cycle(8))) is None


# ---------------------------------------------------------------------------
# cut-vertex constructions


def test_color_bridged_star():
    g = star(5)
    out = color_diam2(g)
    assert out.certificate.connected
    assert out.colors_used == 5
    assert out.guarantee == 7
    assert out.provenance.style == "bridged"
    # every bridge gets its own color
    seen = {out.coloring.color(u, v) for u, v in g.edges}
    assert seen == set(range(1, 6))


@pytest.mark.parametrize("k,r", [(1, 2), (1, 3), (2, 2), (3, 2), (2, 4)])
def test_color_bridged_spends_full_budget(k, r):
    g = tight_example(k, r)
    out = color_diam2(g)
    assert out.certificate.connected
    assert out.colors_used == k + 2
    assert out.guarantee == k + 2
    ok, pair = naive_rainbow_connected(g, out.coloring)
    assert ok, pair


def test_color_cutvertex_bridgeless_windmills():
    for t in (2, 3, 4):
        g = windmill(t)
        out = color_diam2(g)
        assert out.certificate.connected
        assert out.colors_used <= 3
        assert out.guarantee == 3
        assert out.provenance.style == "cut-vertex"


def test_color_cutvertex_bridgeless_blobs():
    for sizes in ((2, 2), (3, 2), (4, 3, 2), (2, 2, 2, 2)):
        g = apex_blobs(*sizes)
        cls = classify(g)
        assert isinstance(cls, BridgelessCutVertex)
        out = color_diam2(g)
        assert out.certificate.connected
        assert out.colors_used <= 3
        ok, pair = naive_rainbow_connected(g, out.coloring)
        assert ok, pair


def test_color_cutvertex_internal_edges_share_one_color():
    g = windmill(3)
    out = color_diam2(g)
    internal = {out.coloring.color(u, v) for u, v in g.edges if 0 not in (u, v)}
    assert internal == {1}


def max_k3_coloring(g, cls):
    """The coloring behind rc <= max(k, 3) for a diameter-2 graph whose cut
    vertex v carries k >= 0 bridges: the bridges take 1..k, v's edges into
    the other components 1 or 2 by spanning-forest side, and the edges inside
    those components 3."""
    v = cls.cut_vertex
    pendants = [c[0] for c in cls.components if len(c) == 1]
    mapping = {(min(v, u), max(v, u)): i for i, u in enumerate(pendants, start=1)}
    side = spanning_forest_bipartition(
        g, [u for c in cls.components if len(c) > 1 for u in c]
    )
    for a, b in g.edges:
        if (a, b) in mapping:
            continue
        if v in (a, b):
            mapping[(a, b)] = 1 if a + b - v in side.left else 2
        else:
            mapping[(a, b)] = 3
    return EdgeColoring.from_map(mapping)


def test_cut_vertex_graphs_admit_max_k_3_colors():
    # With k bridges the class admits max(k, 3) colors, below the paper's
    # k + 2 budget for every k >= 2. Every vertex x off the cut vertex v has a
    # forest neighbor z on the other side, so x-z-v-y joins two vertices on
    # the same side, and p-v-z-x a pendant p whose bridge shares v-x's color.
    nx = pytest.importorskip("networkx")
    graphs = [tight_example(k, r) for k in range(1, 8) for r in range(2, 5)]
    for h in nx.graph_atlas_g():
        g = build_graph(h.number_of_nodes(), h.edges())
        if isinstance(classify(g), (BridgedCutVertex, BridgelessCutVertex)):
            graphs.append(g)
    for g in graphs:
        cls = classify(g)
        k = getattr(cls, "bridge_count", 0)
        coloring = max_k3_coloring(g, cls)
        assert verify_rainbow_connected(g, coloring).connected, sorted(g.edges)
        assert coloring.colors_used <= max(k, 3), sorted(g.edges)
    assert len(graphs) == 86


def test_color_diam2_classifies_a_cut_vertex_graph_once(monkeypatch):
    calls = []
    real = colorer.components

    def counting(g, without=None):
        calls.append(without)
        return real(g, without=without)

    monkeypatch.setattr(colorer, "components", counting)
    out = color_diam2(tight_example(2, 3))
    assert out.provenance.style == "bridged"
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# partitions


def assert_partition_invariants(g, part):
    groups = [
        {part.center},
        part.inner_left,
        part.inner_right,
        part.core_left,
        part.core_right,
        part.outer_both,
        part.outer_left_only,
    ]
    union = set()
    total = 0
    for s in groups:
        union |= set(s)
        total += len(s)
    assert union == set(range(g.n)), "some vertex has no role"
    assert total == g.n, "role groups overlap"
    # The groups are listed in the order of the role codes.
    role = {v: code for code, s in enumerate(groups) for v in s}
    table = colorer._LINKED_TABLE if part.style == "linked-outer" else colorer._CONTACT_TABLE
    for u, v in g.edges:
        key = tuple(sorted((role[u], role[v])))
        assert key in table or key == (colorer._IL, colorer._OLO), (u, v, key)
    for u in part.outer_left_only:
        assert len(g.adj_sets[u]) >= 2
        assert g.adj_sets[u] <= part.inner_left
    assert part.inner_left | part.inner_right == g.adj_sets[part.center]
    accents = dict(part.accent_edge_of)
    assert set(accents) == set(part.outer_left_only)
    for u, (a, b) in accents.items():
        other = b if a == u else a
        assert u in (a, b)
        assert other in part.inner_left
        assert (min(u, other), max(u, other)) in set(g.edges)
    if part.style == "linked-outer":
        assert part.core_left | part.core_right
    else:
        assert part.style == "contact"
        outer = set(range(g.n)) - {part.center} - g.adj_sets[part.center]
        for u, v in g.edges:
            assert not (u in outer and v in outer)


def test_partition_linked_outer_cycle5():
    part = build_partition(cycle(5), 0)
    assert part.style == "linked-outer"
    assert_partition_invariants(cycle(5), part)
    # the two non-neighbors of the center are joined by an edge
    assert part.core_left | part.core_right == frozenset({2, 3})


def test_partition_contact_bipartite():
    g = complete_bipartite(2, 3)
    part = build_partition(g, 0)
    assert part.style == "contact"
    assert_partition_invariants(g, part)


def test_partition_center_validation():
    with pytest.raises(IndexOutOfRange):
        build_partition(cycle(5), 9)
    # every vertex of a 7-cycle has eccentricity 3
    with pytest.raises(WrongCase):
        build_partition(cycle(7), 0)
    # 2-connected with diameter 3, although center 2 has eccentricity 2
    g = build_graph(7, [(0, 1), (0, 4), (1, 2), (2, 3), (2, 5), (3, 6), (4, 5), (5, 6)])
    with pytest.raises(WrongCase):
        build_partition(g, 2)


def test_partition_requires_two_connected():
    with pytest.raises(WrongCase):
        build_partition(star(4), 0)


def test_contact_partition_of_a_universal_center():
    # The hub of a wheel has no outer ring, so the contact graph is the rim
    # itself and its spanning path alternates sides.
    g = wheel(5)
    part = build_partition(g, 5)
    assert part.style == "contact"
    assert_partition_invariants(g, part)
    assert part.inner_left == frozenset({0, 2, 4})
    assert part.inner_right == frozenset({1, 3})


@settings(max_examples=40)
@given(strategies.graphs(min_n=4, max_n=8))
def test_partition_invariants_random(g):
    d = diameter(g)
    if d != 2:
        return
    if not isinstance(classify(g), TwoConnected):
        return
    part = build_partition(g, 0)
    assert_partition_invariants(g, part)


def test_paint_center_edges_get_side_colors():
    g = petersen()
    part = build_partition(g, 0)
    coloring = paint_partition(g, part)
    for u in part.inner_left:
        assert coloring.color(part.center, u) == 1
    for u in part.inner_right:
        assert coloring.color(part.center, u) == 2
    assert coloring.colors_used <= 5


# ---------------------------------------------------------------------------
# two-connected driver


@pytest.mark.parametrize(
    "g",
    [cycle(4), cycle(5), petersen(), wheel(5), wheel(8), complete_bipartite(2, 3), complete_bipartite(3, 4)],
    ids=["c4", "c5", "petersen", "w5", "w8", "k23", "k34"],
)
def test_color_two_connected_within_budget(g):
    out = color_diam2(g)
    assert out.certificate.connected
    assert out.colors_used <= 5
    assert out.guarantee == 5
    ok, pair = naive_rainbow_connected(g, out.coloring)
    assert ok, pair


def test_color_two_connected_deterministic():
    g = petersen()
    a = color_diam2(g)
    b = color_diam2(g)
    assert a.coloring.as_sequence(g) == b.coloring.as_sequence(g)
    assert a.provenance == b.provenance


def test_color_two_connected_center_choice_recorded():
    out = color_diam2(petersen(), center=3)
    assert out.provenance.center is not None
    assert out.certificate.connected


def test_provenance_repair_flag_matches_attempts():
    for g in (cycle(4), petersen(), wheel(6)):
        out = color_diam2(g)
        assert out.provenance.repair_used == (out.provenance.attempts > 1)


def two_connected_atlas_graphs():
    nx = pytest.importorskip("networkx")
    for h in nx.graph_atlas_g():
        g = build_graph(h.number_of_nodes(), h.edges())
        if isinstance(classify(g), TwoConnected):
            yield g


def test_two_connected_atlas_graphs_all_colored():
    # Every graph on at most 7 vertices: the construction alone, with no
    # search behind it, must color each two-connected diameter-2 one, and
    # the base or lifted partition of the first center suffices.
    colored = 0
    for g in two_connected_atlas_graphs():
        out = color_diam2(g)
        assert out.colors_used <= 5
        assert out.provenance.attempts <= 2
        assert out.provenance.forest_seed is None
        assert verify_rainbow_connected(g, out.coloring).connected
        colored += 1
    assert colored == 386


def test_lifted_partition_gives_each_core_vertex_its_own_side():
    # The lemma behind the lifted partition: every core-left vertex keeps an
    # inner-left neighbor, and once every core-right vertex also has an
    # inner-right one, the painted coloring verifies.
    linked = covered = 0
    for g in two_connected_atlas_graphs():
        for c in range(g.n):
            part = build_partition(g, c, lift=True)
            assert_partition_invariants(g, part)
            if part.style != "linked-outer":
                continue
            linked += 1
            assert all(g.adj_sets[x] & part.inner_left for x in part.core_left)
            if all(g.adj_sets[y] & part.inner_right for y in part.core_right):
                assert verify_rainbow_connected(g, paint_partition(g, part)).connected
                covered += 1
    assert (linked, covered) == (1524, 1346)


def test_contact_partitions_paint_verified_colorings():
    # The lemma behind the contact style: when a center's outer ring is
    # independent, its painted partition verifies. Lifting leaves a contact
    # partition as it is, so the base partition is the only try there.
    contact = 0
    for g in two_connected_atlas_graphs():
        for c in range(g.n):
            part = build_partition(g, c)
            assert_partition_invariants(g, part)
            if part.style != "contact":
                continue
            contact += 1
            assert verify_rainbow_connected(g, paint_partition(g, part)).connected
    assert contact == 1108


def test_lifted_partition_rescues_two_connected_graphs():
    # Sparse graphs on which the base partition fails at every center; the
    # lifted partition verifies at center 0, or at center 1.
    seeds = (90, 859, 965, 1038, 1259, 1363, 1726, 1796, 1830, 2051, 2371)
    cases = [(33, 25)] + [(5 + s % 36, s) for s in seeds] + [(11, 10282)]
    for n, seed in cases:
        g = cycle_completion(n, seed)
        assert isinstance(classify(g), TwoConnected)
        out = color_diam2(g)
        assert out.provenance.variant == "lifted"
        assert out.provenance.forest_seed is None
        assert out.provenance.attempts <= 4
        assert out.colors_used <= 5
        assert verify_rainbow_connected(g, out.coloring).connected


def test_one_bfs_per_center_in_the_two_connected_construction(monkeypatch):
    calls = []
    real = colorer.bfs_layers

    def counting(g, center):
        calls.append(center)
        return real(g, center)

    monkeypatch.setattr(colorer, "bfs_layers", counting)
    g = cycle_completion(33, 25)
    out = color_diam2(g)
    # Base and lifted partitions at centers 0 and 1 share each center's BFS.
    assert out.provenance.attempts == 4
    assert out.provenance.center == 1
    assert calls == [0, 1]


def test_two_connected_seeded_stress():
    colored = 0
    for seed in range(200):
        try:
            res = random_diam2(5 + seed % 8, 0.5, seed, require_two_connected=True)
        except GenerationFailed:
            continue
        out = color_diam2(res.graph)
        assert out.certificate.connected
        assert out.colors_used <= 5
        colored += 1
    assert colored >= 100


# ---------------------------------------------------------------------------
# dispatcher


def test_color_diam2_complete():
    out = color_diam2(complete(6))
    assert out.colors_used == 1
    assert out.guarantee == 1
    assert out.provenance.style == "complete"
    assert out.certificate.connected


def test_color_diam2_single_vertex():
    out = color_diam2(build_graph(1, []))
    assert out.colors_used == 0
    assert out.certificate.connected


def test_color_diam2_single_edge():
    out = color_diam2(build_graph(2, [(0, 1)]))
    assert out.colors_used == 1
    assert out.certificate.connected


def test_color_diam2_dispatch_styles():
    assert color_diam2(star(3)).provenance.style == "bridged"
    assert color_diam2(windmill(2)).provenance.style == "cut-vertex"
    assert color_diam2(petersen()).provenance.style in ("linked-outer", "contact")


def test_color_diam2_guarantee_is_the_class_budget_on_atlas():
    nx = pytest.importorskip("networkx")
    colored = 0
    for h in nx.graph_atlas_g():
        g = build_graph(h.number_of_nodes(), h.edges())
        cls = classify(g)
        if isinstance(cls, NotDiameterAtMost2):
            continue
        assert color_diam2(g).guarantee == guarantee_for(cls)
        colored += 1
    assert colored == 458


def test_color_diam2_out_of_scope():
    with pytest.raises(OutOfScopeGraph):
        color_diam2(build_graph(0, []))
    with pytest.raises(OutOfScopeGraph):
        color_diam2(cycle(7))
    with pytest.raises(OutOfScopeGraph):
        color_diam2(build_graph(4, [(0, 1), (2, 3)]))


def test_color_diam2_rejects_center_out_of_range():
    with pytest.raises(IndexOutOfRange):
        color_diam2(petersen(), center=10, try_all_centers=True)
    with pytest.raises(IndexOutOfRange):
        color_diam2(star(3), center=-1)


def outcome_of(g, **kwargs):
    """Everything color_diam2 returns for g, or the class of what it raises."""
    try:
        out = color_diam2(g, **kwargs)
    except RainbowError as exc:
        return type(exc)
    return (
        out.coloring.as_sequence(g),
        out.colors_used,
        out.guarantee,
        out.classification,
        out.provenance,
    )


def test_try_all_centers_is_the_default_center_order_on_atlas():
    # try_all_centers=True gives the center order 0..n-1, which center=None
    # already gives, so it only drops a requested center (here the last one).
    nx = pytest.importorskip("networkx")
    checked = 0
    for h in nx.graph_atlas_g():
        if not h.number_of_nodes() or not nx.is_connected(h):
            continue
        g = build_graph(h.number_of_nodes(), h.edges())
        want = outcome_of(g)
        for c in (None, 0, g.n - 1):
            assert outcome_of(g, center=c, try_all_centers=True) == want, sorted(h.edges())
        checked += 1
    assert checked == 996


def test_color_diam2_never_exceeds_guarantee_random():
    checked = 0
    for seed in range(120):
        try:
            res = random_diam2(4 + seed % 7, 0.45, 1000 + seed)
        except GenerationFailed:
            continue
        out = color_diam2(res.graph)
        assert out.colors_used <= out.guarantee
        assert out.certificate.connected
        checked += 1
    assert checked >= 60


def test_construction_failure_carries_context():
    err = ConstructionFailure("x", graph=cycle(4), failing_pair=(0, 2), attempts=7)
    assert err.graph.n == 4
    assert err.failing_pair == (0, 2)
    assert err.attempts == 7


# ---------------------------------------------------------------------------
# repair tail: ConstructionFailure


def paint_all_ones(g, part):
    """A painter whose every coloring fails, forcing the whole repair loop."""
    return EdgeColoring.from_map({e: 1 for e in g.edges})


def test_construction_failure_when_fallback_finds_nothing(monkeypatch):
    monkeypatch.setattr("rainbowconn.colorer.paint_partition", paint_all_ones)
    with pytest.raises(ConstructionFailure) as info:
        color_diam2(petersen())
    assert info.value.failing_pair == (0, 2)
    # The base partition at each of the 10 centers; Petersen's lifted
    # partitions equal the base ones, so none is painted twice.
    assert info.value.attempts == 10
    assert info.value.graph == petersen()


def test_colorer_imports_nothing_from_exact():
    # The constructions stand on their own: no search stands behind them.
    tree = ast.parse(Path(colorer.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            modules = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        for module in modules:
            parts = module.removeprefix("rainbowconn.").strip(".").split(".")
            assert parts[0] != "exact", f"colorer imports {module}"
