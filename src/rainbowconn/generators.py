"""Deterministic graph families plus seeded random diameter-2 sampling.

Randomness comes from the standard library Mersenne Twister. A run is fully
determined by its integer seed; batch tools derive independent child streams
by seeding with the string "<seed>/<index>", which the random module hashes
stably.

GenSpec.build refuses a spec whose graph would exceed MAX_VERTICES vertices or
MAX_EDGES edges before it builds anything.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator

from .errors import GenerationFailed, InvalidSpec
from .fileio import MAX_VERTICES
from .graph import Graph, bridges, build_graph, diameter, is_two_connected

# Largest edge count a generator spec may ask for.
MAX_EDGES = 1_000_000


def cycle(n: int) -> Graph:
    """Cycle 0-1-...-(n-1)-0; needs n >= 3."""
    if n < 3:
        raise InvalidSpec(f"cycle needs n >= 3, got {n}")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise InvalidSpec(f"complete graph needs n >= 1, got {n}")
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite(s: int, t: int) -> Graph:
    """Sides 0..s-1 and s..s+t-1, every cross pair joined."""
    if s < 1 or t < 1:
        raise InvalidSpec(f"complete bipartite needs both sides >= 1, got ({s}, {t})")
    return build_graph(s + t, [(a, s + b) for a in range(s) for b in range(t)])


def star(leaves: int) -> Graph:
    """Center 0 joined to leaves 1..leaves."""
    if leaves < 1:
        raise InvalidSpec(f"star needs at least one leaf, got {leaves}")
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def petersen() -> Graph:
    """Outer cycle 0..4, inner vertices 5..9, spokes i-(i+5), inner step-2 chords."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return build_graph(10, edges)


def wheel(rim: int) -> Graph:
    """Cycle 0..rim-1 plus a hub at index rim joined to every rim vertex."""
    if rim < 3:
        raise InvalidSpec(f"wheel needs rim >= 3, got {rim}")
    edges = [(i, (i + 1) % rim) for i in range(rim)]
    edges += [(i, rim) for i in range(rim)]
    return build_graph(rim + 1, edges)


def tight_example(k: int, r: int) -> Graph:
    """Apex 0 joined to k pendant vertices and to both ends of r disjoint edges.

    The result has diameter 2 and exactly k bridges (the apex-pendant edges),
    and the bridged construction spends its whole k+2 budget on it. Requires
    k >= 1 and r >= 2.
    """
    if k < 1 or r < 2:
        raise InvalidSpec(f"tight example needs k >= 1 and r >= 2, got ({k}, {r})")
    n = 1 + k + 2 * r
    edges = [(0, i) for i in range(1, n)]
    for j in range(r):
        a = 1 + k + 2 * j
        edges.append((a, a + 1))
    return build_graph(n, edges)


@dataclass(frozen=True)
class GenResult:
    """A sampled graph together with how many rejection rounds it took."""

    graph: Graph
    tries: int


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return build_graph(n, edges)


def random_diam2(
    n: int,
    p: float,
    seed: int | str,
    *,
    max_tries: int = 200,
    require_bridgeless: bool = False,
    require_two_connected: bool = False,
) -> GenResult:
    """Rejection-sample G(n, p) until the diameter is exactly 2.

    Deterministic for a fixed (n, p, seed). Raises GenerationFailed when
    max_tries samples all miss the requirements.
    """
    if n < 3:
        raise InvalidSpec(f"diameter-2 sampling needs n >= 3, got {n}")
    if not (0.0 < p <= 1.0):
        raise InvalidSpec(f"edge probability must be in (0, 1], got {p}")
    if max_tries < 1:
        raise InvalidSpec(f"max_tries must be positive, got {max_tries}")
    rng = random.Random(f"diam2/{seed}")
    for attempt in range(1, max_tries + 1):
        g = random_graph(n, p, rng)
        if diameter(g) != 2:
            continue
        if require_two_connected and not is_two_connected(g):
            continue
        if require_bridgeless and bridges(g):
            continue
        return GenResult(g, attempt)
    raise GenerationFailed(
        f"no diameter-2 graph with the requested structure in {max_tries} tries "
        f"(n={n}, p={p}, seed={seed})"
    )


# Each family's size parameters, its builder (None for random-diam2, which
# takes more parameters) and its (vertex count, edge count); for random-diam2
# the edge count is the n(n-1)/2 pairs each try draws from.
_FAMILIES = {
    "cycle": (("n",), cycle, lambda n: (n, n)),
    "complete": (("n",), complete, lambda n: (n, n * (n - 1) // 2)),
    "complete-bipartite": (("s", "t"), complete_bipartite, lambda s, t: (s + t, s * t)),
    "star": (("leaves",), star, lambda leaves: (leaves + 1, leaves)),
    "petersen": ((), petersen, lambda: (10, 15)),
    "wheel": (("rim",), wheel, lambda rim: (rim + 1, 2 * rim)),
    "tight": (("k", "r"), tight_example, lambda k, r: (1 + k + 2 * r, k + 3 * r)),
    "random-diam2": (("n",), None, lambda n: (n, n * (n - 1) // 2)),
}


@dataclass(frozen=True)
class GenSpec:
    """A generator family plus its parameters, validated on build.

    Parameter names: n (cycle, complete, random-diam2), s/t (complete
    bipartite sides), leaves (star), rim (wheel), k/r (tight example), and
    p, seed, max_tries, bridgeless, two_connected for random sampling.
    """

    family: str
    params: dict = field(default_factory=dict)

    def describe(self) -> str:
        pieces = [f"family={self.family}"]
        pieces += [f"{k}={v}" for k, v in sorted(self.params.items())]
        return " ".join(pieces)

    def _need(self, *names: str) -> list:
        missing = [name for name in names if self.params.get(name) is None]
        if missing:
            raise InvalidSpec(
                f"family {self.family!r} needs parameters: {', '.join(missing)}"
            )
        return [self.params[name] for name in names]

    def _check_type(self, name: str, value, kinds: tuple, what: str) -> None:
        # bool is an int subclass, but True is no size or probability.
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise InvalidSpec(f"{self.describe()}: {name} must be {what}, got {value!r}")

    def build(self) -> GenResult:
        if self.family not in _FAMILIES:
            raise InvalidSpec(
                f"unknown family {self.family!r}; choose one of {', '.join(_FAMILIES)}"
            )
        names, make, size = _FAMILIES[self.family]
        args = self._need(*names)
        for name, value in zip(names, args):
            self._check_type(name, value, (int,), "an integer")
        vertices, edges = size(*args)
        if vertices > MAX_VERTICES:
            raise InvalidSpec(
                f"{self.describe()}: {vertices} vertices exceed the limit of {MAX_VERTICES}"
            )
        if edges > MAX_EDGES:
            raise InvalidSpec(
                f"{self.describe()}: {edges} edges exceed the limit of {MAX_EDGES}"
            )
        if make is not None:
            return GenResult(make(*args), 1)
        n, p, seed = self._need("n", "p", "seed")
        max_tries = self.params.get("max_tries", 200)
        self._check_type("p", p, (int, float), "a real number")
        self._check_type("max_tries", max_tries, (int,), "an integer")
        return random_diam2(
            n,
            p,
            seed,
            max_tries=max_tries,
            require_bridgeless=bool(self.params.get("bridgeless", False)),
            require_two_connected=bool(self.params.get("two_connected", False)),
        )


def child_seed(seed: int, index: int) -> str:
    """Stable derived stream name for task number `index` of a seeded batch."""
    return f"{seed}/{index}"
