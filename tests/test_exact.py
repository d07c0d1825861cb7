import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from rainbowconn.errors import OutOfScopeGraph
from rainbowconn.exact import exact_rc, rc_lower_bound, restricted_growth_strings
from rainbowconn.generators import (
    complete,
    complete_bipartite,
    cycle,
    petersen,
    star,
    tight_example,
)
from rainbowconn.graph import build_graph
from rainbowconn.verify import verify_rainbow_connected


def test_rgs_small_listings():
    assert list(restricted_growth_strings(3, 2)) == [
        (1, 1, 2),
        (1, 2, 1),
        (1, 2, 2),
    ]
    assert list(restricted_growth_strings(4, 1)) == [(1, 1, 1, 1)]
    assert list(restricted_growth_strings(2, 2)) == [(1, 2)]
    assert list(restricted_growth_strings(1, 2)) == []
    assert list(restricted_growth_strings(3, 0)) == []


@given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=5))
def test_rgs_counts_are_stirling_numbers(length, classes):
    got = sum(1 for _ in restricted_growth_strings(length, classes))
    assert got == oracles.stirling2(length, classes)


@given(st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=4))
def test_rgs_strings_are_canonical_and_sorted(length, classes):
    seen = []
    for s in restricted_growth_strings(length, classes):
        assert s[0] == 1
        assert len(set(s)) == classes
        assert max(s) == classes
        running = 0
        for v in s:
            assert 1 <= v <= running + 1
            running = max(running, v)
        seen.append(s)
    assert seen == sorted(seen)
    assert len(seen) == len(set(seen))


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
    assert res.colorings_tested == 1


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
    # The count depends on every rejected candidate's least failing pair,
    # since that pair is rechecked first on the next candidate.
    res = exact_rc(petersen(), budget=10**8)
    assert res.exact == 3
    assert res.colorings_tested == 20_733
