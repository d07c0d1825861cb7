import pytest
from hypothesis import given

from rainbowconn.coloring import EdgeColoring
from rainbowconn.errors import IndexOutOfRange, InvalidEdge, ParseError
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


# Every rejection of parse_edge_list, with its exact message: the p-line
# fields are reported as the text after the "p", edge fields as the stripped
# line, and line numbers count blank and comment lines.
EDGE_LIST_REJECTIONS = [
    ("p 3 1\n0 1\np 3 1\n", ParseError, "line 3: p line must come first"),
    ("0 1\np 2 1\n", ParseError, "line 2: p line must come first"),
    ("p 4\n0 1\n", ParseError, "line 1: expected 2 fields, got 1"),
    ("p 4 3 2\n", ParseError, "line 1: expected 2 fields, got 3"),
    ("p\n", ParseError, "line 1: expected 2 fields, got 0"),
    ("px\n", ParseError, "line 1: expected 2 fields, got 1"),
    ("p 4 x\n", ParseError, "line 1: non-integer field in ' 4 x'"),
    ("  p\t4 x  \n", ParseError, "line 1: non-integer field in '\\t4 x'"),
    ("p -1 0\n", ParseError, "line 1: negative size in p line"),
    ("p 3 -2\n", ParseError, "line 1: negative size in p line"),
    ("p 1000000000 0\n", ParseError, "line 1: 1000000000 vertices exceed the limit of 100000"),
    ("0\n", ParseError, "line 1: expected 2 fields, got 1"),
    ("0 1 2\n", ParseError, "line 1: expected 2 fields, got 3"),
    ("0 1 # note\n", ParseError, "line 1: expected 2 fields, got 4"),
    ("0 one\n", ParseError, "line 1: non-integer field in '0 one'"),
    ("\t0  one \n", ParseError, "line 1: non-integer field in '0  one'"),
    ("0 1.5\n", ParseError, "line 1: non-integer field in '0 1.5'"),
    ("# a\n\n0 1\r\nfoo 2\n", ParseError, "line 4: non-integer field in 'foo 2'"),
    ("-1 2\n", ParseError, "line 1: negative vertex index"),
    ("0 -3\n", ParseError, "line 1: negative vertex index"),
    (
        "0 1000000000\n",
        ParseError,
        "line 1: vertex index 1000000000 exceeds the limit of 100000 vertices",
    ),
    (
        "p 4 2\n0 1\n100000 2\n",
        ParseError,
        "line 3: vertex index 100000 exceeds the limit of 100000 vertices",
    ),
    ("p 3 2\n0 1\n", ParseError, "p line declares 2 edges, file has 1"),
    ("p 3 1\n0 1\n1 2\n", ParseError, "p line declares 1 edges, file has 2"),
    ("", ParseError, "empty edge list and no p line"),
    ("# only\n\n  \n", ParseError, "empty edge list and no p line"),
    ("1 1\n", InvalidEdge, "self loop at vertex 1"),
    ("p 3 1\n0 5\n", IndexOutOfRange, "edge (0, 5) outside 0..2"),
]


@pytest.mark.parametrize("text, error, message", EDGE_LIST_REJECTIONS)
def test_parse_edge_list_rejection_messages(text, error, message):
    with pytest.raises(error) as info:
        parse_edge_list(text)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "text, n, edges",
    [
        ("  # indented comment\n0 1\n", 2, ((0, 1),)),
        ("0\t1\n\t1 \t2\t\n", 3, ((0, 1), (1, 2))),
        ("p 3 2\r\n0 1\r\n# note\r\n2 1\r\n", 3, ((0, 1), (1, 2))),
        ("\n\n0 1\n\n   \n1 2\n\n", 3, ((0, 1), (1, 2))),
        ("p\t4 3\n0 1\n1 2\n2 3\n", 4, ((0, 1), (1, 2), (2, 3))),
        ("p4 1\n3 0\n", 4, ((0, 3),)),
    ],
    ids=["indented-comment", "tabs", "crlf", "blank-lines", "p-tab", "p-glued"],
)
def test_parse_edge_list_accepts_whitespace_variants(text, n, edges):
    g = parse_edge_list(text)
    assert (g.n, g.edges) == (n, edges)


@pytest.mark.parametrize(
    "text, message",
    [
        ("0 1\n", "line 1: expected 3 fields, got 2"),
        ("0 1 2 3\n", "line 1: expected 3 fields, got 4"),
        ("0 1 x\n", "line 1: non-integer field in '0 1 x'"),
        ("p 2 1\n", "line 1: non-integer field in 'p 2 1'"),
        ("# c\n\n0 1 1\r\n  2 1 1.0\n", "line 4: non-integer field in '2 1 1.0'"),
        ("-1 2 1\n", "line 1: negative vertex index"),
        ("0 -2 1\n", "line 1: negative vertex index"),
        ("2 2 1\n", "line 1: self loop at vertex 2"),
        ("0 1 0\n", "line 1: color must be positive, got 0"),
        ("0 1 -4\n", "line 1: color must be positive, got -4"),
        ("0 1 1\n1 0 2\n", "line 2: duplicate edge (0, 1)"),
    ],
)
def test_parse_coloring_rejection_messages(text, message):
    with pytest.raises(ParseError) as info:
        parse_coloring(text)
    assert str(info.value) == message


def test_parse_coloring_accepts_whitespace_variants():
    c = parse_coloring("  # note\r\n\n0\t1 2\r\n\t2 1  3\n\n")
    assert list(c.items()) == [((0, 1), 2), ((1, 2), 3)]


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
