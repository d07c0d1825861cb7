"""In-memory spans recorded by the benchmark around calls into rainbowconn.

A span has an id, the id of the span that was open when it started (its
parent), a name and perf_counter start and end times. Spans are kept in a
list and written out once, when the run ends. Names are `<layer>.<call>`;
the layer is this repository's module name (fileio, graph, colorer, verify,
exact, report, generators, cli).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self._open: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._open[-1] if self._open else None
        self._open.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans.append((span_id, parent, name, start, end))

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = sorted(self.spans)
        path.write_text(
            json.dumps({"fields": ["id", "parent", "name", "start", "end"], "spans": rows}),
            encoding="utf-8",
        )


class NullTracer:
    """Stand-in with the Tracer interface that records nothing."""

    @contextmanager
    def span(self, name: str):
        yield None

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def self_times(spans, roots: set[int]) -> dict[str, float]:
    """Per span name, the summed self time of the spans below the given roots.

    Self time is a span's duration minus the durations of its direct
    children. Root spans themselves are included.
    """
    by_parent: dict[int | None, float] = {}
    for _, parent, _, start, end in spans:
        by_parent[parent] = by_parent.get(parent, 0.0) + (end - start)
    inside = set(roots)
    # Ids are handed out as spans start, so a parent sorts before its children.
    for span_id, parent, *_ in sorted(spans):
        if parent in inside:
            inside.add(span_id)
    totals: dict[str, float] = {}
    for span_id, _, name, start, end in spans:
        if span_id in inside:
            own = (end - start) - by_parent.get(span_id, 0.0)
            totals[name] = totals.get(name, 0.0) + own
    return totals
