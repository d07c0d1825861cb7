"""A fixed pure-Python reference loop that gauges the host's current speed.

On a shared virtual machine the speed of pure-Python code changes by 1.4x
or more, for seconds or for minutes at a time, in CPU time as much as in
wall time, with the clock the host grants its tenants. The benchmark times
this loop between requests, about every EVERY_S seconds, and scales each
request's time by REF_S over the loop's time around it, so that request
times read as seconds at one fixed host speed: the speed at which the loop
takes REF_S seconds.

The loop is plain Python of the kind rainbowconn is made of (see RefLoop)
and never calls into rainbowconn, so a change to the program cannot change
its time. The collector is off while it runs, so the program's heap cannot
slow it either.
"""

from __future__ import annotations

import gc
import random
import time
from collections import deque

# The loop's fastest time, in seconds, seen over many samples on a 2-vCPU
# Intel Xeon (Sapphire Rapids) virtual machine with Python 3.11.7.
REF_S = 0.0105
# The loop is sampled between requests once this many seconds have passed
# since the last sample.
EVERY_S = 0.5
N = 14
M = 30
COLORS = 4
COLORINGS = 32
REPEATS = 3


class RefLoop:
    """Rainbow-path searches over (vertex, used colors) states of a fixed
    edge-colored graph, and a text round trip of its edge list: the set,
    deque, bit and string work that rainbowconn's own loops are made of."""

    def __init__(self) -> None:
        rng = random.Random("rainbowconn-bench-refloop")
        edges = {(rng.randrange(v), v) for v in range(1, N)}
        while len(edges) < M:
            u, v = sorted(rng.sample(range(N), 2))
            edges.add((u, v))
        self.edges = sorted(edges)
        inc: list[list[tuple[int, int]]] = [[] for _ in range(N)]
        for e, (u, v) in enumerate(self.edges):
            inc[u].append((v, e))
            inc[v].append((u, e))
        self.inc = [tuple(a) for a in inc]
        self.colorings = [[1 << rng.randrange(COLORS) for _ in range(M)] for _ in range(COLORINGS)]

    def _search(self) -> int:
        inc = self.inc
        mask_all = (1 << COLORS) - 1
        reached = 0
        for bits in self.colorings:
            for s in range(N):
                start = s << COLORS
                seen = {start}
                queue = deque([start])
                while queue:
                    key = queue.popleft()
                    v = key >> COLORS
                    mask = key & mask_all
                    for w, e in inc[v]:
                        b = bits[e]
                        if mask & b:
                            continue
                        nk = (w << COLORS) | (mask | b)
                        if nk not in seen:
                            seen.add(nk)
                            queue.append(nk)
                reached += len(seen)
            text = "\n".join(f"{u} {v} {c}" for (u, v), c in zip(self.edges, bits))
            reached += sum(int(x) for line in text.split("\n") for x in line.split())
        return reached

    def seconds(self) -> float:
        """The loop's fastest time of a few back-to-back repeats."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            best = float("inf")
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                self._search()
                best = min(best, time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        return best


class HostGauge:
    """Reference-loop samples taken between requests.

    A request served after sample k and before sample k + 1 is scaled by
    REF_S over the mean of those two samples.
    """

    def __init__(self) -> None:
        self.loop = RefLoop()
        for _ in range(REPEATS):
            self.loop.seconds()
        self.samples: list[float] = []
        self.sample()

    def sample(self) -> None:
        self.samples.append(self.loop.seconds())
        self._last = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def mark(self) -> int:
        """The index of the latest sample."""
        return len(self.samples) - 1

    def scale(self, mark: int) -> float:
        return REF_S / ((self.samples[mark] + self.samples[mark + 1]) / 2)
