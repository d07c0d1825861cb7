import pytest
from hypothesis import given

from rainbowconn.coloring import EdgeColoring
from rainbowconn.errors import ParseError
from rainbowconn.fileio import (
    MAX_VERTICES,
    format_coloring,
    format_edge_list,
    parse_coloring,
    parse_edge_list,
)
from strategies import graphs


def test_parse_edge_list_with_header():
    g = parse_edge_list("# comment\np 4 3\n0 1\n1 2\n2 3\n")
    assert g.n == 4
    assert g.edges == ((0, 1), (1, 2), (2, 3))


def test_parse_edge_list_without_header_infers_n():
    g = parse_edge_list("0 1\n1 5\n")
    assert g.n == 6
    assert g.m == 2


def test_parse_edge_list_header_count_must_match():
    with pytest.raises(ParseError):
        parse_edge_list("p 3 2\n0 1\n")
    with pytest.raises(ParseError):
        parse_edge_list("p 3 1\n0 1\n1 2\n")


def test_parse_edge_list_rejects_garbage():
    with pytest.raises(ParseError):
        parse_edge_list("0 one\n")
    with pytest.raises(ParseError):
        parse_edge_list("0 1 2\n")
    with pytest.raises(ParseError):
        parse_edge_list("")
    with pytest.raises(ParseError):
        parse_edge_list("0 1\np 2 1\n")


def refuse_build(n, edges):
    raise AssertionError(f"build_graph reached with n={n}")


def test_parse_edge_list_rejects_oversized_p_line(monkeypatch):
    monkeypatch.setattr("rainbowconn.fileio.build_graph", refuse_build)
    with pytest.raises(ParseError, match=f"limit of {MAX_VERTICES}"):
        parse_edge_list("p 1000000000 0\n")
    with pytest.raises(ParseError, match=f"limit of {MAX_VERTICES}"):
        parse_edge_list(f"p {MAX_VERTICES + 1} 1\n0 1\n")


def test_parse_edge_list_rejects_oversized_index(monkeypatch):
    monkeypatch.setattr("rainbowconn.fileio.build_graph", refuse_build)
    with pytest.raises(ParseError, match=f"limit of {MAX_VERTICES}"):
        parse_edge_list("0 1000000000\n")
    with pytest.raises(ParseError, match=f"limit of {MAX_VERTICES}"):
        parse_edge_list(f"p 4 2\n0 1\n{MAX_VERTICES} 2\n")


def test_parse_edge_list_accepts_the_vertex_limit():
    g = parse_edge_list(f"0 {MAX_VERTICES - 1}\n")
    assert g.n == MAX_VERTICES
    assert g.m == 1


def test_parse_edge_list_isolated_vertices_need_header():
    g = parse_edge_list("p 5 1\n0 1\n")
    assert g.n == 5
    assert g.degree(4) == 0


@given(graphs(max_n=8))
def test_edge_list_round_trip(g):
    assert parse_edge_list(format_edge_list(g)) == g


def test_format_edge_list_header_comments():
    g = parse_edge_list("0 1\n")
    text = format_edge_list(g, header=["hello", "world"])
    assert text.startswith("# hello\n# world\np 2 1\n")


def test_parse_coloring():
    c = parse_coloring("# note\n0 1 3\n2 1 1\n")
    assert c.color(0, 1) == 3
    assert c.color(1, 2) == 1


def test_parse_coloring_rejects_duplicates_and_bad_values():
    with pytest.raises(ParseError):
        parse_coloring("0 1 1\n1 0 2\n")
    with pytest.raises(ParseError):
        parse_coloring("0 1 0\n")
    with pytest.raises(ParseError):
        parse_coloring("0 0 1\n")
    with pytest.raises(ParseError):
        parse_coloring("0 1\n")


def test_coloring_round_trip():
    c = EdgeColoring.from_map({(0, 1): 2, (1, 2): 5})
    back = parse_coloring(format_coloring(c, header=["x"]))
    assert back == c
