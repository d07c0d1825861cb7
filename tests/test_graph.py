import random

import pytest
from hypothesis import given

import oracles
import rainbowconn.graph as graph_mod
from rainbowconn import cli
from rainbowconn.colorer import classify, color_diam2
from rainbowconn.errors import IndexOutOfRange, InvalidEdge
from rainbowconn.fileio import format_edge_list
from rainbowconn.generators import (
    complete,
    complete_bipartite,
    cycle,
    petersen,
    star,
    tight_example,
    wheel,
)
from rainbowconn.graph import (
    UNREACHABLE,
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
    srg_parameters,
)
from strategies import connected_graphs, graphs


def test_build_graph_normalizes():
    g = build_graph(4, [(2, 1), (1, 2), (0, 3)])
    assert g.edges == ((0, 3), (1, 2))
    assert g.adj == ((3,), (2,), (1,), (0,))
    assert g.m == 2
    assert g.has_edge(2, 1)
    assert not g.has_edge(0, 1)


def test_build_graph_rejects_self_loop():
    with pytest.raises(InvalidEdge):
        build_graph(3, [(1, 1)])


def test_build_graph_rejects_out_of_range():
    with pytest.raises(IndexOutOfRange):
        build_graph(3, [(0, 3)])
    with pytest.raises(IndexOutOfRange):
        build_graph(-1, [])


def test_normalize_edge():
    assert normalize_edge(5, 2) == (2, 5)
    assert normalize_edge(2, 5) == (2, 5)


def test_bfs_layers_path():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    layers = bfs_layers(g, 0)
    assert layers.dist == (0, 1, 2, 3)
    assert layers.layers == ((0,), (1,), (2,), (3,))
    assert layers.eccentricity == 3
    assert layers.layer(9) == ()


def test_bfs_layers_unreachable():
    g = build_graph(3, [(0, 1)])
    layers = bfs_layers(g, 0)
    assert layers.dist[2] == UNREACHABLE
    assert layers.eccentricity == 1


def test_diameter_fixtures():
    assert diameter(cycle(5)) == 2
    assert diameter(cycle(6)) == 3
    assert diameter(complete(4)) == 1
    assert diameter(petersen()) == 2
    assert diameter(build_graph(2, [])) is None
    assert diameter(build_graph(0, [])) is None
    assert diameter(build_graph(1, [])) == 0


def _bfs_diameter(g):
    """Largest BFS eccentricity, or None when some BFS misses a vertex."""
    if g.n == 0:
        return None
    best = 0
    for v in range(g.n):
        layers = bfs_layers(g, v)
        if UNREACHABLE in layers.dist:
            return None
        best = max(best, layers.eccentricity)
    return best


def _diameter_cases():
    yield from (build_graph(n, []) for n in (0, 1, 2))
    yield build_graph(2, [(0, 1)])
    for n in range(4, 12):
        yield build_graph(n, [(i, i + 1) for i in range(n - 1)])
    yield from (cycle(n) for n in range(6, 14))
    # Balls still short after two steps, where the connectivity BFS decides:
    # K5 plus an isolated vertex and two disjoint long cycles (None), and a
    # long cycle with a chord (connected, diameter 10).
    yield build_graph(6, complete(5).edges)
    yield build_graph(25, [*cycle(12).edges, *((u + 12, v + 12) for u, v in cycle(13).edges)])
    yield build_graph(20, [*cycle(20).edges, (0, 5)])
    rng = random.Random("diameter-vs-bfs")
    for _ in range(300):
        n = rng.randint(1, 60)
        p = rng.choice((0.03, 0.08, 0.15, 0.3, 0.5, 0.8))
        yield build_graph(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        )


def test_diameter_matches_bfs_eccentricity():
    seen = set()
    for g in _diameter_cases():
        d = diameter(g)
        assert d == _bfs_diameter(g), g
        seen.add(d)
    assert {None, 0, 1, 2, 3, 4} <= seen


def test_diameter_matches_bfs_eccentricity_on_the_atlas():
    nx = pytest.importorskip("networkx")
    for h in nx.graph_atlas_g():
        g = build_graph(h.number_of_nodes(), h.edges())
        assert diameter(g) == _bfs_diameter(g), sorted(h.edges())


def test_is_connected():
    assert is_connected(cycle(4))
    assert not is_connected(build_graph(4, [(0, 1), (2, 3)]))
    assert is_connected(build_graph(1, []))
    # vacuously connected, same convention as the n == 1 case
    assert is_connected(build_graph(0, []))


def test_components_without():
    g = star(3)
    assert components(g) == ((0, 1, 2, 3),)
    assert components(g, without=0) == ((1,), (2,), (3,))


@given(graphs(max_n=7))
def test_bridges_match_brute_force(g):
    assert list(bridges(g)) == oracles.brute_bridges(g)


@given(graphs(max_n=7))
def test_cut_vertices_match_brute_force(g):
    assert list(cut_vertices(g)) == oracles.brute_cut_vertices(g)


def test_bridges_fixtures():
    assert bridges(cycle(5)) == ()
    assert bridges(star(4)) == ((0, 1), (0, 2), (0, 3), (0, 4))
    g = build_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
    assert bridges(g) == ((2, 3), (3, 4))
    assert cut_vertices(g) == (2, 3)


def test_two_connected_fixtures():
    assert is_two_connected(cycle(4))
    assert is_two_connected(petersen())
    assert not is_two_connected(star(3))
    assert not is_two_connected(build_graph(2, [(0, 1)]))
    assert not is_two_connected(build_graph(4, [(0, 1), (2, 3)]))


@given(connected_graphs(min_n=3, max_n=8))
def test_two_connected_means_no_cuts(g):
    assert is_two_connected(g) == (len(cut_vertices(g)) == 0)


def test_forest_bipartition_cycle():
    g = cycle(6)
    fb = spanning_forest_bipartition(g, range(6))
    assert fb.left | fb.right == frozenset(range(6))
    assert len(fb.forest_edges) == 5
    for u, v in fb.forest_edges:
        assert (u in fb.left) != (v in fb.left)


def test_forest_bipartition_subset():
    g = build_graph(6, [(0, 1), (1, 2), (3, 4), (0, 5)])
    fb = spanning_forest_bipartition(g, [0, 1, 2, 3, 4])
    assert fb.left | fb.right == frozenset([0, 1, 2, 3, 4])
    assert len(fb.forest_edges) == 3
    assert (0 in fb.left) != (1 in fb.left)


def test_forest_bipartition_isolated_guard():
    g = build_graph(3, [(0, 1)])
    fb = spanning_forest_bipartition(g, [0, 1, 2])
    assert 2 in fb.left


@given(connected_graphs(min_n=2, max_n=8))
def test_forest_bipartition_properly_two_colors_forest(g):
    fb = spanning_forest_bipartition(g, range(g.n))
    assert len(fb.forest_edges) == g.n - 1
    assert fb.left | fb.right == frozenset(range(g.n))
    assert not (fb.left & fb.right)
    for u, v in fb.forest_edges:
        assert (u in fb.left) != (v in fb.left)


def test_srg_fixtures():
    p = srg_parameters(petersen())
    assert (p.n, p.k, p.lam, p.mu) == (10, 3, 0, 1)
    c = srg_parameters(cycle(5))
    assert (c.n, c.k, c.lam, c.mu) == (5, 2, 0, 1)
    assert srg_parameters(complete(4)) is None
    assert srg_parameters(build_graph(3, [])) is None
    assert srg_parameters(star(3)) is None
    k33 = srg_parameters(complete_bipartite(3, 3))
    assert (k33.n, k33.k, k33.lam, k33.mu) == (6, 3, 0, 3)
    assert srg_parameters(wheel(5)) is None


@given(graphs(max_n=7))
def test_srg_matches_brute_force(g):
    got = srg_parameters(g)
    want = oracles.brute_srg_parameters(g)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert (got.n, got.k, got.lam, got.mu) == want


def test_structural_facts_are_computed_once(monkeypatch, tmp_path, capsys):
    bfs_calls, scan_calls = [], []
    real_bfs, real_scan = graph_mod.bfs_layers, graph_mod._lowlink_scan

    def counting_bfs(g, center):
        bfs_calls.append(g)
        return real_bfs(g, center)

    def counting_scan(g):
        scan_calls.append(g)
        return real_scan(g)

    monkeypatch.setattr(graph_mod, "bfs_layers", counting_bfs)
    monkeypatch.setattr(graph_mod, "_lowlink_scan", counting_scan)

    g = petersen()
    classify(g)
    # Two steps of ball growth settle diameter 2 without a BFS, and the universal
    # vertices settle the class without a lowlink scan.
    assert (len(bfs_calls), len(scan_calls)) == (0, 0)
    assert diameter(g) == 2
    assert bridges(g) == ()
    assert (len(bfs_calls), len(scan_calls)) == (0, 1)
    assert cut_vertices(g) == ()
    assert is_connected(g)
    assert is_two_connected(g)
    assert (len(bfs_calls), len(scan_calls)) == (0, 1)

    for h in (petersen(), star(4), tight_example(2, 2), wheel(6)):
        color_diam2(h)
        # No diameter BFS at diameter 2, and no lowlink scan of h at all.
        assert sum(1 for x in bfs_calls if x is h) == 0
        assert sum(1 for x in scan_calls if x is h) == 0

        # analyze pays for one scan, for the bridge and cut-vertex fields of
        # its input block; the two-connected and bridge outcome fields reuse it.
        path = tmp_path / "h.txt"
        path.write_text(format_edge_list(h))
        before = len(scan_calls)
        assert cli.main(["analyze", str(path), "--format", "structured"]) == cli.EXIT_OK
        capsys.readouterr()
        assert len(scan_calls) == before + 1

        # color and verify read the bridge and cut-vertex fields off the class.
        colored = tmp_path / "c.txt"
        before = len(scan_calls)
        for argv in (["color", str(path), "--out", str(colored)], ["verify", str(path), str(colored)]):
            assert cli.main([*argv, "--format", "structured"]) == cli.EXIT_OK
            capsys.readouterr()
        assert len(scan_calls) == before

        # exact takes connectivity from the diameter and the bridge bound
        # from the class.
        assert cli.main(["exact", str(path), "--format", "structured"]) == cli.EXIT_OK
        capsys.readouterr()
        assert len(scan_calls) == before

    # Other graphs grow their balls further, after one BFS that checks
    # connectivity; a disconnected graph stops there.
    h = cycle(7)
    classify(h)
    assert diameter(h) == 3
    assert sum(1 for x in bfs_calls if x is h) == 1
    two = build_graph(14, [*h.edges, *((u + 7, v + 7) for u, v in h.edges)])
    assert diameter(two) is None
    assert sum(1 for x in bfs_calls if x is two) == 1
