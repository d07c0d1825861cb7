"""Acceptance gate: one check per shipped guarantee, one printed line each.

Every test prints `criterion N: PASS/FAIL - detail` on the real stdout before
asserting, so the gate's verdict survives pytest capture. Criterion 1 is
expected to stay red: its exact-value half demands rc = k+2 of a family whose
true rainbow connection number is max(k, 3) (exhaustive search, k = 1..5 and
r = 2..4). Every diameter-2 graph with k >= 1 bridges has rc at most max(k, 3)
(tests/test_colorer.py builds that coloring), which is below k+2 for every
k >= 2, so no family can meet the demand there. The construction half
(spending exactly k+2 colors) does hold.
"""

import math
import random
import sys
import time

import pytest

from oracles import naive_rainbow_connected, nonisomorphic_trees

from rainbowconn import (
    BridgelessCutVertex,
    EdgeColoring,
    build_graph,
    classify,
    color_diam2,
    complete_bipartite,
    cycle,
    exact_rc,
    is_connected,
    petersen,
    random_diam2,
    tight_example,
    verify_rainbow_connected,
)
from rainbowconn.cli import EXIT_OK, main
from rainbowconn.errors import GenerationFailed
from rainbowconn.fileio import format_edge_list
from rainbowconn.report import parse_structured, strip_timing


@pytest.fixture
def gate(capsys):
    """Printer that punches through pytest capture, one verdict line per test."""

    def line(num: int, ok: bool, detail: str) -> None:
        verdict = "PASS" if ok else "FAIL"
        with capsys.disabled():
            sys.stdout.write(f"\ncriterion {num}: {verdict} - {detail}\n")
            sys.stdout.flush()

    return line


def windmill(t: int):
    edges = []
    for i in range(t):
        a, b = 1 + 2 * i, 2 + 2 * i
        edges += [(0, a), (0, b), (a, b)]
    return build_graph(1 + 2 * t, edges)


def test_criterion_1_bridged_budget_and_exact_values(gate):
    construction = {}
    for k in (1, 2, 3):
        for r in (2, 3):
            g = tight_example(k, r)
            out = color_diam2(g)
            assert out.certificate.connected
            construction[(k, r)] = out.colors_used

    start = time.monotonic()
    measured = {}
    for k, r in ((1, 2), (2, 2)):
        res = exact_rc(tight_example(k, r))
        assert res.is_exact
        measured[(k, r)] = res.exact
    elapsed = time.monotonic() - start

    spent_ok = all(construction[(k, r)] == k + 2 for (k, r) in construction)
    exact_ok = all(measured[(k, r)] == k + 2 for (k, r) in measured)
    gate(
        1,
        spent_ok and exact_ok,
        f"construction spends k+2 colors in {sum(construction[p] == p[0] + 2 for p in construction)}/6 cases; "
        f"exact rc {{(1,2): {measured[(1, 2)]}, (2,2): {measured[(2, 2)]}}} vs required {{(1,2): 3, (2,2): 4}} "
        f"({elapsed:.1f}s)",
    )
    assert spent_ok
    assert measured[(1, 2)] == 3
    # The k=2 family admits a 3-coloring: bridges get colors 1 and 2, each
    # matched pair colors its two apex edges {3, 2} and its own edge 1.
    # Exhaustive search agrees (and proves 2 colors are not enough), so the
    # k+2 = 4 demand below cannot be met. Left red on purpose rather than
    # loosened; the build ledger holds the full analysis.
    assert measured[(2, 2)] == 4


def test_criterion_2_bridgeless_five_color_budget(gate):
    target = 500
    colored = 0
    repairs = 0
    max_used = 0
    start = time.monotonic()
    seed = 0
    while colored < target and seed < 3000:
        n = 8 + seed % 23
        p = 0.45 if n < 14 else (0.55 if n < 24 else 0.65)
        seed += 1
        try:
            g = random_diam2(n, p, f"budget5/{seed}", require_bridgeless=True).graph
        except GenerationFailed:
            continue
        out = color_diam2(g)
        cert = verify_rainbow_connected(g, out.coloring)
        assert cert.connected, f"verifier rejected seed {seed}"
        assert out.colors_used <= 5, f"{out.colors_used} colors at seed {seed}"
        colored += 1
        max_used = max(max_used, out.colors_used)
        if out.provenance.repair_used:
            repairs += 1
    elapsed = time.monotonic() - start

    ok = colored == target and elapsed < 120.0
    gate(
        2,
        ok,
        f"{colored}/{target} verified with <= 5 colors (max {max_used}), "
        f"repair loop used {repairs} times, {elapsed:.1f}s",
    )
    assert colored == target
    assert elapsed < 120.0


def test_criterion_3_one_cut_vertex_three_colors(gate):
    graphs = []
    for i in range(50):
        graphs.append(windmill(2 + i % 9))
    for i in range(50):
        rng = random.Random(f"blobs/{i}")
        edges = []
        v = 1
        for _ in range(rng.randint(2, 4)):
            size = rng.randint(2, 5)
            block = list(range(v, v + size))
            for u in block:
                edges.append((0, u))
            for a, b in zip(block, block[1:]):
                edges.append((a, b))
            for a in block:
                for b in block:
                    if a < b and rng.random() < 0.35:
                        edges.append((a, b))
            v += size
        graphs.append(build_graph(v, sorted(set(edges))))

    checked = 0
    max_used = 0
    for g in graphs:
        cls = classify(g)
        assert isinstance(cls, BridgelessCutVertex)
        out = color_diam2(g)
        assert out.certificate.connected
        assert out.colors_used <= 3
        max_used = max(max_used, out.colors_used)
        checked += 1

    ok = checked == 100
    gate(3, ok, f"{checked}/100 verified with <= 3 colors (max {max_used})")
    assert ok


def test_criterion_4_known_exact_values(gate):
    start = time.monotonic()
    mismatches = []

    for n in (4, 5, 6, 7):
        want = math.ceil(n / 2)
        got = exact_rc(cycle(n)).exact
        if got != want:
            mismatches.append(f"cycle({n}): {got} != {want}")

    for t in (2, 3, 4, 5):
        want = min(math.isqrt(t - 1) + 1, 4)
        got = exact_rc(complete_bipartite(2, t)).exact
        if got != want:
            mismatches.append(f"bipartite(2,{t}): {got} != {want}")

    tree_count = 0
    for n in range(1, 8):
        for tree in nonisomorphic_trees(n):
            g = build_graph(*tree)
            got = exact_rc(g).exact
            if got != g.m:
                mismatches.append(f"tree n={n} m={g.m}: {got}")
            tree_count += 1
    elapsed = time.monotonic() - start

    ok = not mismatches and elapsed < 300.0
    gate(
        4,
        ok,
        f"4 cycles, 4 bipartite, {tree_count} trees all exact ({elapsed:.1f}s)"
        if ok
        else "; ".join(mismatches),
    )
    assert not mismatches
    assert elapsed < 300.0


def test_criterion_5_strongly_regular_guarantee(tmp_path, capsys, gate):
    srg_expect = {"petersen": (10, 3, 0, 1), "c5": (5, 2, 0, 1)}
    seen = {}
    for name, argv in (("petersen", ["gen", "petersen"]), ("c5", ["gen", "cycle", "n=5"])):
        path = tmp_path / f"{name}.txt"
        assert main(argv + ["--out", str(path)]) == EXIT_OK
        assert main(["analyze", str(path), "--format", "structured"]) == EXIT_OK
        rep = parse_structured(capsys.readouterr().out)
        srg = rep["input"]["srg"]
        seen[name] = (srg["n"], srg["k"], srg["lambda"], srg["mu"])
        assert srg["mu"] >= 1
        assert rep["input"]["guarantee"] == 5
        assert "five colors" in rep["outcome"]["note"]

    for g in (petersen(), cycle(5)):
        out = color_diam2(g)
        assert out.certificate.connected
        assert out.colors_used <= 5

    res = exact_rc(petersen(), budget=10**8)
    ok = seen == srg_expect and res.is_exact and res.exact == 3
    gate(
        5,
        ok,
        f"srg {seen['petersen']} and {seen['c5']}, rc(petersen) = {res.exact} "
        f"after {res.colorings_tested} search steps",
    )
    assert seen == srg_expect
    assert res.is_exact
    assert res.exact == 3


def test_criterion_6_verifier_matches_naive_oracle(gate):
    graph_count = 2000
    colorings_each = 200
    checked = 0
    mismatches = 0
    start = time.monotonic()
    for i in range(graph_count):
        rng = random.Random(f"oracle/{i}")
        n = rng.randint(1, 6)
        while True:
            edges = [
                (a, b)
                for a in range(n)
                for b in range(a + 1, n)
                if rng.random() < 0.5
            ]
            g = build_graph(n, edges)
            if is_connected(g):
                break
        for _ in range(colorings_each):
            colors = [rng.randint(1, 3) for _ in range(g.m)]
            coloring = EdgeColoring.from_sequence(g, colors)
            cert = verify_rainbow_connected(g, coloring)
            naive_ok, naive_pair = naive_rainbow_connected(g, coloring)
            if cert.connected != naive_ok or cert.failing_pair != naive_pair:
                mismatches += 1
            checked += 1
    elapsed = time.monotonic() - start

    ok = mismatches == 0 and checked == graph_count * colorings_each
    gate(
        6,
        ok,
        f"{checked} verdicts compared, {mismatches} mismatches ({elapsed:.1f}s)",
    )
    assert checked == graph_count * colorings_each
    assert mismatches == 0


def test_criterion_7_no_five_color_example_found(tmp_path, capsys, gate):
    findings = tmp_path / "findings.txt"
    rc = main([
        "fuzz", "hunt-rc5", "random-diam2", "n=5..8", "p=0.55",
        "--count", "48", "--seed", "0", "--budget", "200000",
        "--findings", str(findings), "--format", "structured",
    ])
    rep = parse_structured(capsys.readouterr().out)
    out = rep["outcome"]
    ok = (
        rc == EXIT_OK
        and out["findings"] == 0
        and findings.exists()
        and findings.read_text() == ""
        and out["max_rc"] is not None
        and out["max_rc"] <= 4
        and out["instances"] > 0
    )
    gate(
        7,
        ok,
        f"{out['instances']} instances ({out['exact_count']} exact, "
        f"{out['bounds_count']} bounded), max exact rc {out['max_rc']}, "
        f"findings file empty: {findings.read_text() == ''}",
    )
    assert rc == EXIT_OK
    assert out["findings"] == 0
    assert findings.read_text() == ""
    assert out["max_rc"] is not None and out["max_rc"] <= 4


def test_criterion_8_deterministic_outputs(tmp_path, capsys, gate):
    fixtures = [
        ("petersen", ["gen", "petersen"]),
        ("c5", ["gen", "cycle", "n=5"]),
        ("k24", ["gen", "complete-bipartite", "s=2", "t=4"]),
        ("star4", ["gen", "star", "leaves=4"]),
        ("tight22", ["gen", "tight", "k=2", "r=2"]),
        ("rand9", ["gen", "random-diam2", "n=9", "p=0.5", "--seed", "7"]),
    ]
    diffs = []
    for name, argv in fixtures:
        gpath = tmp_path / f"{name}.txt"
        assert main(argv + ["--out", str(gpath)]) == EXIT_OK
        capsys.readouterr()

        cpath = tmp_path / f"{name}-colors.txt"
        runs = []
        for _ in range(2):
            assert main(["color", str(gpath), "--format", "structured",
                         "--out", str(cpath)]) == EXIT_OK
            report = strip_timing(parse_structured(capsys.readouterr().out))
            runs.append((cpath.read_bytes(), report))
        if runs[0] != runs[1]:
            diffs.append(f"{name}: color")

        exact_runs = []
        for _ in range(2):
            code = main(["exact", str(gpath), "--budget", "100000",
                         "--format", "structured"])
            assert code in (EXIT_OK, 3)
            exact_runs.append(strip_timing(parse_structured(capsys.readouterr().out)))
        if exact_runs[0] != exact_runs[1]:
            diffs.append(f"{name}: exact")

    ok = not diffs
    gate(
        8,
        ok,
        f"{len(fixtures)} fixtures, color and exact byte-stable"
        if ok
        else "unstable: " + ", ".join(diffs),
    )
    assert not diffs
