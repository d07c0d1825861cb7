"""End-to-end command tests driven through main(argv)."""

import io

import pytest

from rainbowconn import EdgeColoring, build_graph, cycle, parse_edge_list, petersen, star
from rainbowconn.cli import (
    EXIT_BUDGET,
    EXIT_FAILED,
    EXIT_INPUT,
    EXIT_OK,
    main,
)
from rainbowconn.fileio import MAX_VERTICES, format_edge_list
from rainbowconn.generators import MAX_EDGES
from rainbowconn.report import parse_structured


def write_graph(tmp_path, g, name="g.txt"):
    path = tmp_path / name
    path.write_text(format_edge_list(g))
    return str(path)


def structured(capsys):
    return parse_structured(capsys.readouterr().out)


def test_exit_code_values():
    assert (EXIT_OK, EXIT_FAILED, EXIT_INPUT, EXIT_BUDGET) == (0, 1, 2, 3)


# ---------------------------------------------------------------------------
# analyze


def test_analyze_cycle(tmp_path, capsys):
    path = write_graph(tmp_path, cycle(5))
    assert main(["analyze", path, "--format", "structured"]) == EXIT_OK
    rep = structured(capsys)
    assert rep["command"] == "analyze"
    assert rep["input"]["n"] == 5
    assert rep["input"]["diameter"] == 2
    assert rep["input"]["classification"] == "two-connected"
    assert rep["input"]["guarantee"] == 5
    assert rep["outcome"]["two_connected"] is True
    assert rep["outcome"]["bridges"] == []


def test_analyze_strongly_regular_note(tmp_path, capsys):
    assert main(["gen", "petersen", "--out", str(tmp_path / "p.txt")]) == EXIT_OK
    capsys.readouterr()
    assert main(["analyze", str(tmp_path / "p.txt"), "--format", "structured"]) == EXIT_OK
    rep = structured(capsys)
    assert rep["input"]["srg"] == {"n": 10, "k": 3, "lambda": 0, "mu": 1}
    assert "five colors" in rep["outcome"]["note"]


def test_analyze_text_format(tmp_path, capsys):
    path = write_graph(tmp_path, cycle(4))
    assert main(["analyze", path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "command: analyze" in out
    assert "two_connected: true" in out


def test_analyze_out_of_scope_still_reports(tmp_path, capsys):
    path = write_graph(tmp_path, cycle(7))
    assert main(["analyze", path, "--format", "structured"]) == EXIT_OK
    rep = structured(capsys)
    assert rep["input"]["diameter"] == 3
    assert rep["input"]["classification"] == "not-diameter-at-most-2"
    assert rep["input"]["guarantee"] is None


def test_analyze_stdin(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(format_edge_list(cycle(4))))
    assert main(["analyze", "-", "--format", "structured"]) == EXIT_OK
    rep = structured(capsys)
    assert rep["input"]["n"] == 4


# ---------------------------------------------------------------------------
# color


def test_color_writes_coloring_and_verify_accepts_it(tmp_path, capsys):
    gpath = write_graph(tmp_path, cycle(5))
    cpath = str(tmp_path / "coloring.txt")
    assert main(["color", gpath, "--format", "structured", "--out", cpath]) == EXIT_OK
    rep = structured(capsys)
    assert rep["outcome"]["verified"] is True
    assert rep["outcome"]["colors_used"] <= 5
    assert rep["outcome"]["coloring_file"] == cpath
    assert len(rep["outcome"]["coloring"]) == 5

    assert main(["verify", gpath, cpath, "--format", "structured"]) == EXIT_OK
    rep2 = structured(capsys)
    assert rep2["outcome"]["connected"] is True


def test_color_roundtrip_many(tmp_path, capsys):
    for seed, n in ((1, 6), (2, 7), (3, 8), (4, 9)):
        rc = main(["gen", "random-diam2", f"n={n}", "p=0.5", "--seed", str(seed),
                   "--out", str(tmp_path / "g.txt")])
        if rc != EXIT_OK:
            continue
        capsys.readouterr()
        cpath = str(tmp_path / "c.txt")
        assert main(["color", str(tmp_path / "g.txt"), "--out", cpath]) == EXIT_OK
        capsys.readouterr()
        assert main(["verify", str(tmp_path / "g.txt"), cpath]) == EXIT_OK
        capsys.readouterr()


def test_color_provenance_block(tmp_path, capsys):
    path = write_graph(tmp_path, cycle(4))
    assert main(["color", path, "--format", "structured"]) == EXIT_OK
    prov = structured(capsys)["outcome"]["provenance"]
    assert set(prov) == {"style", "center", "forest_seed", "variant", "attempts", "repair_used"}
    assert prov["attempts"] >= 1


def test_color_out_of_scope_exit2(tmp_path, capsys):
    path = write_graph(tmp_path, cycle(7))
    assert main(["color", path]) == EXIT_INPUT


def test_color_construction_failure_exit1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        "rainbowconn.colorer.paint_partition",
        lambda g, part: EdgeColoring.from_map({e: 1 for e in g.edges}),
    )
    path = write_graph(tmp_path, petersen())
    assert main(["color", path, "--format", "structured"]) == EXIT_FAILED
    rep = structured(capsys)
    assert rep["outcome"]["verified"] is False
    assert rep["outcome"]["failing_pair"] == [0, 2]


def test_color_center_flag(tmp_path, capsys):
    gpath = write_graph(tmp_path, cycle(5))
    assert main(["color", gpath, "--center", "2", "--format", "structured"]) == EXIT_OK
    rep = structured(capsys)
    assert rep["outcome"]["verified"] is True
    assert main(["color", gpath, "--center", "11"]) == EXIT_INPUT


def test_color_center_out_of_range_on_cut_vertex_graph(tmp_path, capsys):
    gpath = write_graph(tmp_path, star(4))
    assert main(["color", gpath, "--center", "99"]) == EXIT_INPUT
    assert "center 99" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify


def test_verify_rejects_bad_coloring(tmp_path, capsys):
    g = cycle(5)
    gpath = write_graph(tmp_path, g)
    cpath = tmp_path / "bad.txt"
    cpath.write_text("".join(f"{u} {v} 1\n" for u, v in g.edges))
    assert main(["verify", gpath, str(cpath), "--format", "structured"]) == EXIT_FAILED
    rep = structured(capsys)
    assert rep["outcome"]["connected"] is False
    assert rep["outcome"]["failing_pair"] == [0, 2]


def test_verify_witnesses(tmp_path, capsys):
    g = cycle(4)
    gpath = write_graph(tmp_path, g)
    cpath = str(tmp_path / "c.txt")
    assert main(["color", gpath, "--out", cpath]) == EXIT_OK
    capsys.readouterr()
    assert main(["verify", gpath, cpath, "--witnesses", "--format", "structured"]) == EXIT_OK
    rep = structured(capsys)
    assert len(rep["outcome"]["witnesses"]) == 6


def test_verify_coloring_mismatch_exit2(tmp_path, capsys):
    gpath = write_graph(tmp_path, cycle(4))
    cpath = tmp_path / "short.txt"
    cpath.write_text("0 1 1\n")
    assert main(["verify", gpath, str(cpath)]) == EXIT_INPUT


def test_verify_sparse_labels_under_cap(tmp_path, capsys):
    gpath = write_graph(tmp_path, cycle(3))
    cpath = tmp_path / "sparse.txt"
    cpath.write_text("0 1 1\n0 2 1\n1 2 1000\n")
    assert main(["verify", gpath, str(cpath), "--format", "structured"]) == EXIT_OK
    assert structured(capsys)["outcome"]["connected"] is True


# ---------------------------------------------------------------------------
# exact


def test_exact_cycle5(tmp_path, capsys):
    path = write_graph(tmp_path, cycle(5))
    assert main(["exact", path, "--format", "structured"]) == EXIT_OK
    rep = structured(capsys)
    out = rep["outcome"]
    assert out["exact"] == 3
    assert out["is_exact"] is True
    assert out["lower"] == 3 and out["upper"] == 3
    assert out["colorings_tested"] > 0
    assert len(out["witness"]) == 5


def test_exact_budget_exhaustion_exit3(tmp_path, capsys):
    path = write_graph(tmp_path, cycle(7))
    assert main(["exact", path, "--budget", "3", "--format", "structured"]) == EXIT_BUDGET
    rep = structured(capsys)
    assert rep["outcome"]["is_exact"] is False
    assert rep["outcome"]["budget_exhausted"] is True


def test_exact_max_edges_cutoff_exit3(tmp_path, capsys):
    path = write_graph(tmp_path, cycle(6))
    assert main(["exact", path, "--max-edges-full", "5", "--format", "structured"]) == EXIT_BUDGET
    rep = structured(capsys)
    out = rep["outcome"]
    assert out["is_exact"] is False
    assert out["colorings_tested"] == 0
    assert out["lower"] >= 3
    assert out["upper"] >= out["lower"]


def test_exact_disconnected_exit2(tmp_path):
    path = write_graph(tmp_path, build_graph(4, [(0, 1), (2, 3)]))
    assert main(["exact", path]) == EXIT_INPUT


# ---------------------------------------------------------------------------
# input handling


def test_parse_error_exit2(tmp_path, capsys):
    path = tmp_path / "junk.txt"
    path.write_text("p edge 3 1\n0 frog\n")
    assert main(["analyze", str(path)]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["p 1000000000 0\n", "0 1000000000\n"])
def test_oversized_graph_exit2(tmp_path, capsys, monkeypatch, text):
    def refuse_build(n, edges):
        raise AssertionError(f"build_graph reached with n={n}")

    monkeypatch.setattr("rainbowconn.fileio.build_graph", refuse_build)
    path = tmp_path / "huge.txt"
    path.write_text(text)
    assert main(["analyze", str(path)]) == EXIT_INPUT
    assert f"limit of {MAX_VERTICES}" in capsys.readouterr().err


def test_missing_file_exit2(tmp_path):
    assert main(["analyze", str(tmp_path / "nope.txt")]) == EXIT_INPUT


def test_report_out_file(tmp_path, capsys):
    gpath = write_graph(tmp_path, cycle(4))
    rpath = tmp_path / "report.json"
    assert main(["analyze", gpath, "--format", "structured", "--out", str(rpath)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    rep = parse_structured(rpath.read_text())
    assert rep["input"]["n"] == 4


# ---------------------------------------------------------------------------
# gen


def test_gen_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    argv = ["gen", "random-diam2", "n=8", "p=0.4", "--seed", "3"]
    assert main(argv + ["--out", str(a)]) == EXIT_OK
    assert main(argv + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    g = parse_edge_list(a.read_text())
    assert g.n == 8


def test_gen_seed_changes_output(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["gen", "random-diam2", "n=9", "p=0.4", "--seed", "1", "--out", str(a)]) == EXIT_OK
    assert main(["gen", "random-diam2", "n=9", "p=0.4", "--seed", "2", "--out", str(b)]) == EXIT_OK
    assert a.read_bytes() != b.read_bytes()


def test_gen_stdout_header(capsys):
    assert main(["gen", "cycle", "n=6"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("#")
    assert "family=cycle" in out
    g = parse_edge_list(out)
    assert (g.n, g.m) == (6, 6)


def test_gen_rejects_ranges():
    assert main(["gen", "cycle", "n=4..6"]) == EXIT_INPUT


def test_gen_unknown_family():
    assert main(["gen", "moebius", "n=4"]) == EXIT_INPUT


def test_gen_bad_param():
    assert main(["gen", "cycle", "n=2"]) == EXIT_INPUT
    assert main(["gen", "cycle"]) == EXIT_INPUT


def refuse_generator_build(n, edges):
    raise AssertionError(f"build_graph reached with n={n}")


# Each spec is only just over a limit, so that a missing check builds a
# modest edge list and then fails at the stub instead of exhausting memory.
OVERSIZED_SPECS = [
    (["cycle", f"n={MAX_VERTICES + 1}"], f"limit of {MAX_VERTICES}"),
    (["complete", "n=1415"], f"limit of {MAX_EDGES}"),
    (["complete-bipartite", "s=1001", "t=1000"], f"limit of {MAX_EDGES}"),
    (["star", f"leaves={MAX_VERTICES}"], f"limit of {MAX_VERTICES}"),
    (["wheel", f"rim={MAX_VERTICES}"], f"limit of {MAX_VERTICES}"),
    (["tight", "k=2", f"r={MAX_VERTICES // 2}"], f"limit of {MAX_VERTICES}"),
    (["random-diam2", "n=1415", "p=0.5"], f"limit of {MAX_EDGES}"),
]


@pytest.mark.parametrize("spec,message", OVERSIZED_SPECS)
def test_gen_oversized_spec_exit2(capsys, monkeypatch, spec, message):
    monkeypatch.setattr("rainbowconn.generators.build_graph", refuse_generator_build)
    assert main(["gen", *spec]) == EXIT_INPUT
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("spec,message", [OVERSIZED_SPECS[0], OVERSIZED_SPECS[-1]])
def test_fuzz_validate_oversized_spec_exit2(capsys, monkeypatch, spec, message):
    monkeypatch.setattr("rainbowconn.generators.build_graph", refuse_generator_build)
    assert main(["fuzz", "validate", *spec, "--count", "1"]) == EXIT_INPUT
    assert message in capsys.readouterr().err


WRONG_TYPED_SPECS = [
    (["cycle", "n=abc"], "n must be an integer"),
    (["cycle", "n=7.5"], "n must be an integer"),
    (["tight", "k=1", "r=x"], "r must be an integer"),
    (["random-diam2", "n=8", "p=abc"], "p must be a real number"),
    (["random-diam2", "n=8", "p=0.5", "max_tries=2.5"], "max_tries must be an integer"),
]


@pytest.mark.parametrize("spec,message", WRONG_TYPED_SPECS)
def test_gen_wrong_typed_spec_exit2(capsys, spec, message):
    assert main(["gen", *spec]) == EXIT_INPUT
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("spec,message", WRONG_TYPED_SPECS)
def test_fuzz_validate_wrong_typed_spec_exit2(capsys, spec, message):
    assert main(["fuzz", "validate", *spec, "--count", "1"]) == EXIT_INPUT
    assert message in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fuzz


def test_fuzz_validate_mixed_scope(tmp_path, capsys):
    assert main([
        "fuzz", "validate", "cycle", "n=4..7", "--count", "8",
        "--format", "structured",
    ]) == EXIT_OK
    rep = structured(capsys)
    out = rep["outcome"]
    assert out["generated"] == 8
    assert out["verified"] == 4
    assert out["out_of_scope"] == 4
    assert out["construction_failures"] == 0
    assert out["verify_mismatches"] == 0


def test_fuzz_validate_random(tmp_path, capsys):
    assert main([
        "fuzz", "validate", "random-diam2", "n=6..9", "p=0.5",
        "--count", "12", "--seed", "5", "--format", "structured",
    ]) == EXIT_OK
    out = structured(capsys)["outcome"]
    assert out["generated"] + out["generation_failed"] == 12
    assert out["construction_failures"] == 0
    assert out["verify_mismatches"] == 0
    hist = out["colors_used_histogram"]
    assert sum(hist.values()) == out["verified"]
    assert all(isinstance(k, str) for k in hist)


def test_fuzz_validate_defaults(capsys):
    assert main(["fuzz", "validate", "--count", "5", "--format", "structured"]) == EXIT_OK
    rep = structured(capsys)
    assert rep["input"]["family"] == "random-diam2"


def test_fuzz_hunt_touches_findings_file(tmp_path, capsys):
    findings = tmp_path / "findings.txt"
    assert main([
        "fuzz", "hunt-rc5", "random-diam2", "n=7", "p=0.5",
        "--count", "6", "--seed", "2", "--budget", "200000",
        "--findings", str(findings), "--format", "structured",
    ]) == EXIT_OK
    rep = structured(capsys)
    out = rep["outcome"]
    assert findings.exists()
    assert out["findings"] == 0
    assert out["instances"] == 6
    assert out["max_rc"] <= 4
    assert out["findings_file"] == str(findings)


def test_fuzz_bad_mode_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["fuzz", "explode"])
