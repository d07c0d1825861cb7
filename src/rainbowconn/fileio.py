"""Text formats for graphs and colorings.

Edge list: one `u v` pair per line, `#` starts a comment line, and an optional
first significant line `p <n> <m>` pins the vertex count. Without a p line the
vertex count is the largest index plus one.

Coloring: one `u v c` triple per line with a positive color, same comment rule.

Edge lists are capped at MAX_VERTICES vertices, checked on the p line and on
every edge before any adjacency is allocated.
"""

from __future__ import annotations

from typing import Sequence

from .coloring import EdgeColoring
from .errors import ParseError
from .graph import Edge, Graph, build_graph, normalize_edge

# Largest vertex count an edge list may declare or imply.
MAX_VERTICES = 100_000


def _int_fields(line: str, lineno: int, count: int) -> list[int]:
    fields = line.split()
    if len(fields) != count:
        raise ParseError(f"line {lineno}: expected {count} fields, got {len(fields)}")
    try:
        return [int(f) for f in fields]
    except ValueError:
        raise ParseError(f"line {lineno}: non-integer field in {line!r}") from None


def parse_edge_list(text: str) -> Graph:
    declared: tuple[int, int] | None = None
    raw_edges: list[tuple[int, int]] = []
    # One split per line finds the significant lines and their fields: the
    # fields are empty exactly when the stripped line is, and the first field
    # starts with "#" or "p" exactly when the stripped line does.
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields:
            continue
        lead = fields[0][0]
        if lead == "#":
            continue
        if lead == "p":
            if declared is not None or raw_edges:
                raise ParseError(f"line {lineno}: p line must come first")
            n, m = _int_fields(raw.strip()[1:], lineno, 2)
            if n < 0 or m < 0:
                raise ParseError(f"line {lineno}: negative size in p line")
            if n > MAX_VERTICES:
                raise ParseError(
                    f"line {lineno}: {n} vertices exceed the limit of {MAX_VERTICES}"
                )
            declared = (n, m)
            continue
        if len(fields) != 2:
            raise ParseError(f"line {lineno}: expected 2 fields, got {len(fields)}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(
                f"line {lineno}: non-integer field in {raw.strip()!r}"
            ) from None
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative vertex index")
        if u >= MAX_VERTICES or v >= MAX_VERTICES:
            raise ParseError(
                f"line {lineno}: vertex index {max(u, v)} exceeds the limit of"
                f" {MAX_VERTICES} vertices"
            )
        raw_edges.append((u, v))
    if declared is not None:
        n, m = declared
        if m != len(raw_edges):
            raise ParseError(f"p line declares {m} edges, file has {len(raw_edges)}")
    else:
        if not raw_edges:
            raise ParseError("empty edge list and no p line")
        n = max(max(u, v) for u, v in raw_edges) + 1
    return build_graph(n, raw_edges)


def format_edge_list(g: Graph, header: Sequence[str] = ()) -> str:
    lines = [f"# {h}" for h in header]
    lines.append(f"p {g.n} {g.m}")
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_coloring(text: str) -> EdgeColoring:
    mapping: dict[Edge, int] = {}
    # The same one split per line as parse_edge_list, with no p line.
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0][0] == "#":
            continue
        if len(fields) != 3:
            raise ParseError(f"line {lineno}: expected 3 fields, got {len(fields)}")
        try:
            u, v, c = int(fields[0]), int(fields[1]), int(fields[2])
        except ValueError:
            raise ParseError(
                f"line {lineno}: non-integer field in {raw.strip()!r}"
            ) from None
        if u < 0 or v < 0:
            raise ParseError(f"line {lineno}: negative vertex index")
        if u == v:
            raise ParseError(f"line {lineno}: self loop at vertex {u}")
        if c < 1:
            raise ParseError(f"line {lineno}: color must be positive, got {c}")
        key = normalize_edge(u, v)
        if key in mapping:
            raise ParseError(f"line {lineno}: duplicate edge {key}")
        mapping[key] = c
    # The keys are normalized edges and the colors positive ints already.
    return EdgeColoring(mapping, max(mapping.values(), default=0))


def format_coloring(coloring: EdgeColoring, header: Sequence[str] = ()) -> str:
    lines = [f"# {h}" for h in header]
    lines.extend(f"{u} {v} {c}" for (u, v), c in coloring.items())
    return "\n".join(lines) + "\n"
