import random
from collections import Counter

import pytest

import oracles
from rainbowconn import exact
from rainbowconn.colorer import BridgedCutVertex, classify
from rainbowconn.errors import OutOfScopeGraph
from rainbowconn.exact import exact_rc, rc_lower_bound
from rainbowconn.generators import (
    GenSpec,
    complete,
    complete_bipartite,
    cycle,
    petersen,
    random_diam2,
    star,
    tight_example,
)
from rainbowconn.graph import build_graph, diameter
from rainbowconn.verify import verify_rainbow_connected


def test_lower_bound_cases():
    assert rc_lower_bound(build_graph(1, [])) == 0
    assert rc_lower_bound(complete(5)) == 1
    assert rc_lower_bound(cycle(6)) == 3
    assert rc_lower_bound(star(4)) == 4
    assert rc_lower_bound(tight_example(3, 2)) == 3
    with pytest.raises(OutOfScopeGraph):
        rc_lower_bound(build_graph(3, [(0, 1)]))


@pytest.mark.parametrize(
    "n,want", [(4, 2), (5, 3), (6, 3), (7, 4)]
)
def test_exact_rc_cycles(n, want):
    res = exact_rc(cycle(n))
    assert res.exact == want
    assert res.lower == res.upper == want
    cert = verify_rainbow_connected(cycle(n), res.witness)
    assert cert.connected
    assert res.witness.colors_used == want


@pytest.mark.parametrize("t,want", [(2, 2), (3, 2), (4, 2), (5, 3)])
def test_exact_rc_complete_bipartite(t, want):
    res = exact_rc(complete_bipartite(2, t))
    assert res.exact == want
    assert verify_rainbow_connected(complete_bipartite(2, t), res.witness).connected


def test_exact_rc_trivia():
    assert exact_rc(build_graph(1, [])).exact == 0
    assert exact_rc(build_graph(2, [(0, 1)])).exact == 1
    assert exact_rc(complete(4)).exact == 1
    with pytest.raises(OutOfScopeGraph):
        exact_rc(build_graph(2, []))


def test_exact_rc_level_never_below_witness_bound():
    g = star(5)
    res = exact_rc(g)
    assert res.exact == 5
    # 15 listed paths, one per pair, then 1 + 2 + 3 + 4 + 5 search nodes:
    # edge i is cut at every color below i + 1.
    assert res.colorings_tested == 30


def test_budget_exhaustion_returns_bounds():
    g = cycle(7)
    res = exact_rc(g, budget=3)
    assert not res.is_exact
    assert res.budget_exhausted
    assert res.colorings_tested == 3
    # Level 3 was cut short, so 3 stays possible from the search's view.
    assert res.lower == 3
    assert res.upper == g.m
    assert verify_rainbow_connected(g, res.witness).connected


def test_max_edges_cutoff_skips_search():
    g = complete_bipartite(4, 6)
    res = exact_rc(g, max_edges_full=10)
    assert not res.is_exact
    assert not res.budget_exhausted
    assert res.colorings_tested == 0
    assert res.lower >= 2
    assert res.upper <= 5
    assert verify_rainbow_connected(g, res.witness).connected


def test_max_colors_cutoff():
    # diameter of the 6-cycle is 3, so the search starts above the cap and
    # the fallback witness is the all-distinct coloring
    g = cycle(6)
    res = exact_rc(g, max_colors=2)
    assert not res.is_exact
    assert not res.budget_exhausted
    assert res.lower == 3
    assert res.upper == g.m
    assert verify_rainbow_connected(g, res.witness).connected

    # here the cap interrupts a live search: level 2 gets ruled out in full
    # before the cutoff, so the reported floor moves up to 3
    h = complete_bipartite(2, 5)
    res2 = exact_rc(h, max_colors=2)
    assert not res2.is_exact
    assert res2.lower == 3
    assert res2.colorings_tested > 0
    assert verify_rainbow_connected(h, res2.witness).connected


def test_budget_counts_candidates_exactly():
    g = cycle(5)
    full = exact_rc(g)
    again = exact_rc(g, budget=full.colorings_tested)
    assert again.exact == full.exact
    assert again.colorings_tested == full.colorings_tested


def test_tight_family_true_values():
    # The bridged construction spends k+2 colors on these, but the graphs
    # themselves stay at 3: bridge colors can be reused across the matching
    # edges once k >= 2, so only k = 1 meets its budget exactly.
    for k, r in [(1, 2), (2, 2), (3, 2)]:
        res = exact_rc(tight_example(k, r), max_edges_full=12)
        assert res.exact == 3, (k, r)


def test_witness_verdicts_match_naive_oracle():
    for n, want in [(4, 2), (5, 3)]:
        g = cycle(n)
        res = exact_rc(g)
        ok, _ = oracles.naive_rainbow_connected(g, res.witness)
        assert ok
        assert res.exact == want


def test_petersen_candidate_count_is_pinned():
    # Listed paths (45 at level 2, 105 at level 3) plus 31 search nodes; the
    # node count depends on the edge order and on how early forward checking
    # cuts a branch.
    res = exact_rc(petersen(), budget=10**8)
    assert res.exact == 3
    assert res.colorings_tested == 181


def _same_as_oracle(g):
    res = exact_rc(g, budget=10**7)
    want, colors = oracles.oracle_rc(g)
    assert res.exact == want, sorted(g.edges)
    assert res.witness.as_sequence(g) == colors, sorted(g.edges)


def test_exact_rc_matches_enumeration_oracle_on_atlas():
    nx = pytest.importorskip("networkx")
    checked = 0
    for h in nx.graph_atlas_g():
        if h.number_of_nodes() == 0 or h.number_of_edges() > 8 or not nx.is_connected(h):
            continue
        _same_as_oracle(build_graph(h.number_of_nodes(), h.edges()))
        checked += 1
    assert checked == 200


def test_exact_rc_matches_enumeration_oracle_on_random_graphs():
    rng = random.Random("exact-oracle")
    for _ in range(40):
        n = rng.randint(3, 8)
        # A random spanning tree keeps the graph connected.
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        extra = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
        edges += extra[: 8 - len(edges)]
        _same_as_oracle(build_graph(n, edges))


def _same_as_dfs(g):
    # A refutation rests on the search alone, so the value is checked
    # against the pruned DFS that preceded forward checking: it finds no
    # coloring one level down and the same first coloring at the level.
    res = exact_rc(g, budget=10**8, max_edges_full=g.m)
    assert res.is_exact, sorted(g.edges)
    if res.exact:
        assert oracles.dfs_rc(g, res.exact - 1) is None, sorted(g.edges)
    assert oracles.dfs_rc(g, res.exact) == res.witness.as_sequence(g), sorted(g.edges)


def test_exact_rc_matches_dfs_reference_on_atlas():
    nx = pytest.importorskip("networkx")
    checked = 0
    for h in nx.graph_atlas_g():
        if h.number_of_nodes() == 0 or h.number_of_edges() > 12 or not nx.is_connected(h):
            continue
        _same_as_dfs(build_graph(h.number_of_nodes(), h.edges()))
        checked += 1
    assert checked == 753


@pytest.mark.parametrize("n", [9, 10, 11])
def test_exact_rc_matches_dfs_reference_on_random_graphs(n):
    for i in range(6):
        _same_as_dfs(random_diam2(n, 0.4, f"exact-vs-dfs/{n}/{i}").graph)


def test_rc_census_of_diameter_2_atlas_graphs():
    nx = pytest.importorskip("networkx")
    census = Counter()
    for h in nx.graph_atlas_g():
        if h.number_of_nodes() == 0 or not nx.is_connected(h):
            continue
        g = build_graph(h.number_of_nodes(), h.edges())
        if diameter(g) != 2:
            continue
        cls = classify(g)
        k = cls.bridge_count if isinstance(cls, BridgedCutVertex) else 0
        census[cls.tag, k, exact_rc(g, budget=10**8, max_edges_full=g.m).exact] += 1
    assert census == {
        ("two-connected", 0, 2): 351,
        ("two-connected", 0, 3): 35,
        ("bridgeless-cut-vertex", 0, 2): 10,
        ("bridgeless-cut-vertex", 0, 3): 3,
        ("bridged-cut-vertex", 1, 2): 19,
        ("bridged-cut-vertex", 1, 3): 14,
        ("bridged-cut-vertex", 2, 2): 1,
        ("bridged-cut-vertex", 2, 3): 10,
        ("bridged-cut-vertex", 3, 3): 4,
        ("bridged-cut-vertex", 4, 4): 2,
        ("bridged-cut-vertex", 5, 5): 1,
        ("bridged-cut-vertex", 6, 6): 1,
    }


def test_reach_14_0_resolves_within_the_budget():
    # m = 36: forward checking refutes level 2 and finds rc 3 in about
    # 230k steps, where the per-pair check at the last path edge ran out of
    # 20M steps with bounds [3, 4].
    g = random_diam2(14, 0.35, "reach/14/0", require_two_connected=True).graph
    res = exact_rc(g, budget=1_000_000, max_edges_full=36)
    assert not res.budget_exhausted
    assert res.exact == 3
    assert verify_rainbow_connected(g, res.witness).connected


def test_exact_9_1_resolves():
    spec = GenSpec("random-diam2", {"n": 9, "p": 0.5, "seed": "exact/9/1", "bridgeless": True})
    res = exact_rc(spec.build().graph, budget=100_000, max_edges_full=25)
    assert res.exact == 2
    assert not res.budget_exhausted


def test_deep_graph_stops_at_the_budget():
    # K_46 less one edge has diameter 2 and 1,034 edges; its path listing
    # alone would run far past the budget.
    g = build_graph(46, [(u, v) for u in range(46) for v in range(u + 1, 46)][1:])
    res = exact_rc(g, budget=500, max_edges_full=g.m)
    assert not res.is_exact
    assert res.budget_exhausted
    assert res.colorings_tested == 500
    assert res.lower == 2
    assert verify_rainbow_connected(g, res.witness, want_witnesses=False).connected


def test_search_deeper_than_the_recursion_limit():
    # Level 1 on K_46: 1,035 listed paths, then one node per edge.
    g = complete(46)
    res = exact_rc(g, budget=2 * g.m, max_edges_full=g.m)
    assert res.exact == 1
    assert res.colorings_tested == 2 * g.m


def test_progress_reports_every_step_in_order(monkeypatch):
    monkeypatch.setattr(exact, "PROGRESS_INTERVAL", 1)
    seen = []
    res = exact_rc(cycle(5), progress=seen.append)
    assert seen == list(range(1, res.colorings_tested + 1))
