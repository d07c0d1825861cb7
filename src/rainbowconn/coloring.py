"""Edge colorings: a total map from edges to colors 1..c."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from .errors import ColoringMismatch, InvalidEdge
from .graph import Edge, Graph, normalize_edge


@dataclass(frozen=True)
class EdgeColoring:
    """Colors for a set of edges; color values live in 1..color_count.

    The coloring need not be proper and need not use every value up to
    color_count. Instances are value objects: build them with from_map or
    from_sequence and treat them as read only. Calling the constructor
    directly skips validation, so it is for callers whose keys are already
    normalized edges and whose colors are positive ints.
    """

    color_of: dict[Edge, int] = field(compare=True)
    color_count: int = 0

    @classmethod
    def from_map(cls, mapping: Mapping[tuple[int, int], int]) -> "EdgeColoring":
        clean: dict[Edge, int] = {}
        for (u, v), c in mapping.items():
            if u == v:
                raise InvalidEdge(f"self loop at vertex {u}")
            # bool is an int subclass, but True would be written out as
            # "True", which no coloring file accepts.
            if not isinstance(c, int) or isinstance(c, bool) or c < 1:
                raise ColoringMismatch(f"edge ({u}, {v}) has invalid color {c!r}")
            clean[normalize_edge(u, v)] = c
        count = max(clean.values(), default=0)
        return cls(clean, count)

    @classmethod
    def from_sequence(cls, g: Graph, colors: Iterable[int]) -> "EdgeColoring":
        """Zip colors against g.edges in their sorted order."""
        seq = tuple(colors)
        if len(seq) != g.m:
            raise ColoringMismatch(f"expected {g.m} colors, got {len(seq)}")
        return cls.from_map(dict(zip(g.edges, seq)))

    def color(self, u: int, v: int) -> int:
        return self.color_of[normalize_edge(u, v)]

    @property
    def m(self) -> int:
        return len(self.color_of)

    @property
    def colors_used(self) -> int:
        return len(set(self.color_of.values()))

    def items(self) -> Iterator[tuple[Edge, int]]:
        """Edge and color pairs in sorted edge order."""
        for e in sorted(self.color_of):
            yield e, self.color_of[e]

    def ensure_covers(self, g: Graph) -> None:
        """Raise ColoringMismatch unless the colored edges equal E(g) exactly."""
        keys = set(self.color_of)
        missing = g.edge_set - keys
        extra = keys - g.edge_set
        if missing or extra:
            parts = []
            if missing:
                parts.append(f"{len(missing)} uncolored (e.g. {min(missing)})")
            if extra:
                parts.append(f"{len(extra)} unknown (e.g. {min(extra)})")
            raise ColoringMismatch("coloring does not match edge set: " + ", ".join(parts))

    def as_sequence(self, g: Graph) -> tuple[int, ...]:
        """Colors aligned with g.edges; raises if coverage differs."""
        seq = tuple(map(self.color_of.get, g.edges))
        # Every edge of g is colored and no other edge is exactly when no
        # lookup missed and the sizes agree; otherwise ensure_covers raises.
        if None in seq or len(self.color_of) != g.m:
            self.ensure_covers(g)
        return seq
