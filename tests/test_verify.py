import ast
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings

import oracles
from rainbowconn import verify
from rainbowconn.coloring import EdgeColoring
from rainbowconn.errors import CapExceeded, ColoringMismatch, IndexOutOfRange
from rainbowconn.colorer import _color_classified, classify
from rainbowconn.generators import complete, cycle, petersen, random_diam2, star, tight_example
from rainbowconn.graph import build_graph
from rainbowconn.verify import (
    DEFAULT_COLOR_CAP,
    check_witness,
    rainbow_path,
    verify_rainbow_connected,
)
from strategies import colorings_for, connected_graphs


def test_c4_alternating_is_rainbow_connected():
    g = cycle(4)
    cert = verify_rainbow_connected(g, EdgeColoring.from_sequence(g, [1, 2, 2, 1]))
    assert cert.connected
    assert cert.failing_pair is None
    for (u, v), path in cert.witnesses.items():
        assert check_witness(g, EdgeColoring.from_sequence(g, [1, 2, 2, 1]), u, v, path)


def test_witnesses_come_in_ascending_pair_order():
    # Reports list the witnesses in the certificate's key order unsorted, so
    # both kernels and the certificate color --witnesses uses must yield
    # every pair (s, t), s < t, in ascending order.
    def all_pairs(g):
        return [(s, t) for s in range(g.n) for t in range(s + 1, g.n)]

    g = cycle(4)
    repeated = verify_rainbow_connected(g, EdgeColoring.from_sequence(g, [1, 2, 2, 1]))
    assert list(repeated.witnesses) == all_pairs(g)
    for g in (petersen(), random_diam2(14, 0.4, "ascending/0").graph):
        distinct = verify_rainbow_connected(g, EdgeColoring.from_sequence(g, range(1, g.m + 1)))
        assert list(distinct.witnesses) == all_pairs(g)
    for g in (petersen(), tight_example(2, 2), random_diam2(14, 0.4, "ascending/0").graph):
        outcome = _color_classified(g, classify(g), want_witnesses=True)
        assert outcome.colors_used < g.m
        assert list(outcome.certificate.witnesses) == all_pairs(g)


def test_c4_all_one_fails_on_least_pair():
    g = cycle(4)
    cert = verify_rainbow_connected(g, EdgeColoring.from_sequence(g, [1, 1, 1, 1]))
    assert not cert.connected
    assert cert.failing_pair == (0, 2)
    assert cert.witnesses is None


def test_disconnected_graph_fails():
    g = build_graph(4, [(0, 1), (2, 3)])
    cert = verify_rainbow_connected(g, EdgeColoring.from_sequence(g, [1, 2]))
    assert not cert.connected
    assert cert.failing_pair == (0, 2)


def test_single_vertex_and_empty_pairs():
    g1 = build_graph(1, [])
    assert verify_rainbow_connected(g1, EdgeColoring.from_map({})).connected
    g2 = build_graph(2, [])
    cert = verify_rainbow_connected(g2, EdgeColoring.from_map({}))
    assert not cert.connected
    assert cert.failing_pair == (0, 1)


def test_coloring_must_cover_edges():
    g = cycle(4)
    with pytest.raises(ColoringMismatch):
        verify_rainbow_connected(g, EdgeColoring.from_map({(0, 1): 1}))


def test_check_witness_names_an_uncolored_path_edge():
    g = build_graph(3, [(0, 1), (1, 2)])
    partial = EdgeColoring.from_map({(0, 1): 1})
    with pytest.raises(ColoringMismatch, match=r"^coloring does not cover path edge \(1, 2\)$"):
        check_witness(g, partial, 0, 2, (0, 1, 2))
    # Only the path's own edges need colors.
    assert check_witness(g, partial, 0, 1, (0, 1))
    assert check_witness(g, partial, 1, 0, (1, 0))


def test_color_cap():
    g = cycle(6)
    colors = [1, 2, 3, 4, 1, 2]
    sparse = [c * 20 + 1 for c in colors]
    assert verify_rainbow_connected(
        g, EdgeColoring.from_sequence(g, sparse)
    ) == verify_rainbow_connected(g, EdgeColoring.from_sequence(g, colors))
    g = cycle(18)
    c = EdgeColoring.from_sequence(g, list(range(1, 18)) + [1])
    assert c.colors_used == DEFAULT_COLOR_CAP + 1
    with pytest.raises(CapExceeded):
        verify_rainbow_connected(g, c)
    assert verify_rainbow_connected(g, c, cap_colors=17).connected


def test_all_distinct_fast_path_ignores_cap():
    g = complete(7)
    c = EdgeColoring.from_sequence(g, range(1, g.m + 1))
    assert c.color_count > DEFAULT_COLOR_CAP
    cert = verify_rainbow_connected(g, c)
    assert cert.connected
    for (u, v), path in cert.witnesses.items():
        assert check_witness(g, c, u, v, path)


def test_witnesses_are_valid_rainbow_paths():
    g = petersen()
    c = EdgeColoring.from_sequence(g, [1 + i % 5 for i in range(g.m)])
    cert = verify_rainbow_connected(g, c)
    if cert.connected:
        assert len(cert.witnesses) == g.n * (g.n - 1) // 2
        for (u, v), path in cert.witnesses.items():
            assert path[0] == u and path[-1] == v
            assert check_witness(g, c, u, v, path)
            assert len(path) - 1 <= c.color_count


def test_witness_path_length_within_color_count():
    g = cycle(5)
    c = EdgeColoring.from_sequence(g, [1, 2, 2, 3, 3])
    cert = verify_rainbow_connected(g, c)
    if cert.connected:
        for path in cert.witnesses.values():
            assert len(path) - 1 <= c.color_count


def test_rainbow_path_finds_one_and_rejects_bad_input():
    g = cycle(5)
    c = EdgeColoring.from_sequence(g, [1, 2, 3, 4, 5])
    p = rainbow_path(g, c, 0, 2)
    assert p is not None
    assert check_witness(g, c, 0, 2, p)
    with pytest.raises(IndexOutOfRange):
        rainbow_path(g, c, 0, 9)
    assert rainbow_path(g, c, 3, 3) == (3,)


def test_rainbow_path_none_when_blocked():
    g = star(3)
    c = EdgeColoring.from_sequence(g, [1, 1, 1])
    assert rainbow_path(g, c, 1, 2) is None


def test_check_witness_rejects_junk():
    g = cycle(4)
    c = EdgeColoring.from_sequence(g, [1, 2, 3, 4])
    assert not check_witness(g, c, 0, 2, (0, 2))
    assert not check_witness(g, c, 0, 2, (0, 1, 1, 2))
    assert not check_witness(g, c, 0, 2, (1, 2))
    assert not check_witness(g, c, 0, 2, (0, 3, 2, 1))
    assert check_witness(g, c, 0, 2, (0, 1, 2))


@given(connected_graphs(min_n=2, max_n=6).flatmap(
    lambda g: colorings_for(g, max_colors=3).map(lambda c: (g, c))
))
@settings(max_examples=150)
def test_dp_verdict_matches_naive_enumeration(gc):
    g, c = gc
    ok, pair = oracles.naive_rainbow_connected(g, c)
    cert = verify_rainbow_connected(g, c, want_witnesses=False)
    assert cert.connected == ok
    assert cert.failing_pair == pair


def test_seeded_sweep_matches_naive():
    rng = random.Random("verify-sweep")
    for _ in range(300):
        n = rng.randint(2, 6)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.6
        ]
        g = build_graph(n, edges)
        c = EdgeColoring.from_sequence(
            g, [rng.randint(1, 3) for _ in range(g.m)]
        ) if g.m else EdgeColoring.from_map({})
        ok, pair = oracles.naive_rainbow_connected(g, c)
        cert = verify_rainbow_connected(g, c, want_witnesses=True)
        assert cert.connected == ok
        assert cert.failing_pair == pair
        if ok:
            for (u, v), path in cert.witnesses.items():
                assert check_witness(g, c, u, v, path)
        simple_paths = oracles.all_pair_simple_paths(g)
        for u in range(n):
            for v in range(n):
                if u == v:
                    continue
                exists = any(
                    oracles.is_rainbow_path(c, p)
                    for p in simple_paths.get((min(u, v), max(u, v)), ())
                )
                path = rainbow_path(g, c, u, v)
                assert (path is not None) == exists
                assert path is None or check_witness(g, c, u, v, path)


def _shortest_rainbow_length(g, c, u, v):
    """Edges on the shortest rainbow simple path from u to v, per the oracle."""
    paths = oracles.all_pair_simple_paths(g).get((min(u, v), max(u, v)), ())
    return min((len(p) - 1 for p in paths if oracles.is_rainbow_path(c, p)), default=None)


def test_reach_table_matches_naive_on_small_graphs():
    rng = random.Random("reach-table")
    outcomes = {True: 0, False: 0}
    for _ in range(160):
        n = rng.randint(2, 9)
        p = rng.choice((0.35, 0.5, 0.7))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        g = build_graph(n, edges)
        if g.m < 2:
            continue
        k = rng.randint(2, 6)
        c = EdgeColoring.from_sequence(g, [rng.randint(1, k) for _ in range(g.m)])
        if c.colors_used == g.m:
            continue
        ok, pair = oracles.naive_rainbow_connected(g, c)
        assert verify_rainbow_connected(g, c, want_witnesses=False) == (
            verify.RainbowCertificate(ok, pair)
        )
        cert = verify_rainbow_connected(g, c)
        assert (cert.connected, cert.failing_pair) == (ok, pair)
        outcomes[ok] += 1
        if not ok:
            assert cert.witnesses is None
            continue
        assert list(cert.witnesses) == [(u, v) for u in range(n) for v in range(u + 1, n)]
        for (u, v), path in cert.witnesses.items():
            assert check_witness(g, c, u, v, path)
            assert len(path) - 1 == _shortest_rainbow_length(g, c, u, v)
    assert min(outcomes.values()) >= 20, outcomes


def test_sixteen_colors_verify_at_the_default_cap():
    g = cycle(17)
    c = EdgeColoring.from_sequence(g, list(range(1, 17)) + [1])
    assert c.colors_used == DEFAULT_COLOR_CAP
    cert = verify_rainbow_connected(g, c)
    assert cert.connected
    assert oracles.naive_rainbow_connected(g, c) == (True, None)
    for (u, v), path in cert.witnesses.items():
        assert check_witness(g, c, u, v, path)
        assert len(path) - 1 == _shortest_rainbow_length(g, c, u, v)


def test_verifier_imports_nothing_from_the_constructions():
    # The verifier is the trust anchor: it may use the data types and the
    # error taxonomy, but no algorithm it could share a bug with.
    allowed = {"coloring": None, "errors": None, "graph": {"Graph", "UNREACHABLE"}}
    tree = ast.parse(Path(verify.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                assert alias.name.split(".")[0] in sys.stdlib_module_names, alias.name
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "rainbowconn":
                assert module.split(".")[0] in sys.stdlib_module_names, module
                continue
            local = module.removeprefix("rainbowconn.") if node.level == 0 else module
            assert local in allowed, f"verify imports {local}"
            names = {alias.name for alias in node.names}
            assert allowed[local] is None or names <= allowed[local], names
