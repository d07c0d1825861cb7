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
    StructureViolation,
    TwoConnected,
    WrongCase,
    build_graph,
    classify,
    color_bridged,
    color_cutvertex_bridgeless,
    color_diam2,
    color_two_connected,
    complete,
    complete_bipartite,
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
from rainbowconn.colorer import (
    build_link_graph,
    build_partition,
    paint_partition,
    partition_contact,
    partition_linked_outer,
)
from rainbowconn.errors import GenerationFailed


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
    out = color_bridged(g, classify(g))
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
    out = color_bridged(g, classify(g))
    assert out.certificate.connected
    assert out.colors_used == k + 2
    assert out.guarantee == k + 2
    ok, pair = naive_rainbow_connected(g, out.coloring)
    assert ok, pair


def test_color_bridged_wrong_case():
    cls = classify(star(3))
    with pytest.raises(WrongCase):
        color_bridged(star(4), cls)


def test_color_cutvertex_bridgeless_windmills():
    for t in (2, 3, 4):
        g = windmill(t)
        out = color_cutvertex_bridgeless(g, classify(g))
        assert out.certificate.connected
        assert out.colors_used <= 3
        assert out.guarantee == 3
        assert out.provenance.style == "cut-vertex"


def test_color_cutvertex_bridgeless_blobs():
    for sizes in ((2, 2), (3, 2), (4, 3, 2), (2, 2, 2, 2)):
        g = apex_blobs(*sizes)
        cls = classify(g)
        assert isinstance(cls, BridgelessCutVertex)
        out = color_cutvertex_bridgeless(g, cls)
        assert out.certificate.connected
        assert out.colors_used <= 3
        ok, pair = naive_rainbow_connected(g, out.coloring)
        assert ok, pair


def test_color_cutvertex_internal_edges_share_one_color():
    g = windmill(3)
    out = color_cutvertex_bridgeless(g, classify(g))
    internal = {out.coloring.color(u, v) for u, v in g.edges if 0 not in (u, v)}
    assert internal == {1}


def test_color_cutvertex_wrong_case():
    cls = classify(windmill(2))
    with pytest.raises(WrongCase):
        color_cutvertex_bridgeless(windmill(3), cls)


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
        part.outer_right_only,
    ]
    union = set()
    total = 0
    for s in groups:
        union |= set(s)
        total += len(s)
    assert union == set(range(g.n))
    assert total == g.n, "role groups overlap"
    assert part.inner_left | part.inner_right == g.adj_sets[part.center]
    assert not part.outer_right_only
    accents = part.accent_map()
    assert set(accents) == set(part.outer_left_only)
    for u, (a, b) in accents.items():
        other = b if a == u else a
        assert u in (a, b)
        assert other in part.inner_left
        assert (min(u, other), max(u, other)) in set(g.edges)
    if part.style == "linked-outer":
        assert part.core
    else:
        assert part.style == "contact"
        outer = set(range(g.n)) - {part.center} - g.adj_sets[part.center]
        for u, v in g.edges:
            assert not (u in outer and v in outer)


def test_partition_linked_outer_cycle5():
    part = partition_linked_outer(cycle(5), 0)
    assert part.style == "linked-outer"
    assert_partition_invariants(cycle(5), part)
    # the two non-neighbors of the center are joined by an edge
    assert part.core == frozenset({2, 3})


def test_partition_contact_bipartite():
    g = complete_bipartite(2, 3)
    part = partition_contact(g, 0)
    assert part.style == "contact"
    assert_partition_invariants(g, part)


def test_partition_center_validation():
    with pytest.raises(IndexOutOfRange):
        build_partition(cycle(5), 9)
    # the hub of a wheel has eccentricity 1, not 2
    with pytest.raises(WrongCase):
        partition_linked_outer(wheel(5), 5)


def test_partition_requires_two_connected():
    with pytest.raises(WrongCase):
        build_partition(star(4), 0)


def test_build_link_graph_rejects_outer_edges():
    # the far ring of any Petersen vertex spans edges
    with pytest.raises(WrongCase):
        build_link_graph(petersen(), 0)


def test_build_link_graph_bipartite():
    g = complete_bipartite(2, 4)
    link = build_link_graph(g, 0)
    assert set(link.vertices) == set(g.adj_sets[0])
    # all four inner vertices share the other side's hub, so the
    # contact graph is complete
    assert link.graph.m == 6


@settings(max_examples=40)
@given(strategies.graphs(min_n=4, max_n=8))
def test_partition_invariants_random(g):
    d = diameter(g)
    if d != 2:
        return
    try:
        cls = classify(g)
    except StructureViolation:
        return
    if not isinstance(cls, TwoConnected):
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
    out = color_two_connected(g)
    assert out.certificate.connected
    assert out.colors_used <= 5
    assert out.guarantee == 5
    ok, pair = naive_rainbow_connected(g, out.coloring)
    assert ok, pair


def test_color_two_connected_rejects_other_cases():
    with pytest.raises(WrongCase):
        color_two_connected(star(4))
    with pytest.raises(WrongCase):
        color_two_connected(cycle(7))
    with pytest.raises(IndexOutOfRange):
        color_two_connected(petersen(), center=10)


def test_color_two_connected_deterministic():
    g = petersen()
    a = color_two_connected(g)
    b = color_two_connected(g)
    assert a.coloring.as_sequence(g) == b.coloring.as_sequence(g)
    assert a.provenance == b.provenance


def test_color_two_connected_center_choice_recorded():
    out = color_two_connected(petersen(), center=3)
    assert out.provenance.center is not None
    assert out.certificate.connected


def test_provenance_repair_flag_matches_attempts():
    for g in (cycle(4), petersen(), wheel(6)):
        out = color_two_connected(g)
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
        out = color_two_connected(g)
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
            if part.style != "linked-outer":
                continue
            linked += 1
            assert all(g.adj_sets[x] & part.inner_left for x in part.core_left)
            if all(g.adj_sets[y] & part.inner_right for y in part.core_right):
                assert verify_rainbow_connected(g, paint_partition(g, part)).connected
                covered += 1
    assert (linked, covered) == (1524, 1346)


def test_lifted_partition_rescues_two_connected_graphs():
    # Sparse graphs on which the base partition fails at every center; the
    # lifted partition verifies at center 0, or at center 1.
    seeds = (90, 859, 965, 1038, 1259, 1363, 1726, 1796, 1830, 2051, 2371)
    cases = [(33, 25)] + [(5 + s % 36, s) for s in seeds] + [(11, 10282)]
    for n, seed in cases:
        g = cycle_completion(n, seed)
        assert isinstance(classify(g), TwoConnected)
        out = color_two_connected(g)
        assert out.provenance.variant == "lifted"
        assert out.provenance.forest_seed is None
        assert out.provenance.attempts <= 4
        assert out.colors_used <= 5
        assert verify_rainbow_connected(g, out.coloring).connected


def test_two_connected_seeded_stress():
    colored = 0
    for seed in range(200):
        try:
            res = random_diam2(5 + seed % 8, 0.5, seed, require_two_connected=True)
        except GenerationFailed:
            continue
        out = color_two_connected(res.graph)
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
        color_two_connected(petersen())
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
