import hashlib

import pytest

import oracles
from rainbowconn.errors import GenerationFailed, InvalidSpec
from rainbowconn.generators import (
    GenSpec,
    child_seed,
    complete,
    complete_bipartite,
    cycle,
    petersen,
    random_diam2,
    star,
    tight_example,
    wheel,
)
from rainbowconn.graph import bridges, cut_vertices, diameter, is_two_connected


def test_cycle_shape():
    g = cycle(5)
    assert g.n == 5 and g.m == 5
    assert all(g.degree(v) == 2 for v in range(5))
    with pytest.raises(InvalidSpec):
        cycle(2)


def test_complete_shape():
    g = complete(5)
    assert g.m == 10
    assert g.is_complete()


def test_complete_bipartite_shape():
    g = complete_bipartite(2, 3)
    assert g.n == 5 and g.m == 6
    assert g.degree(0) == 3 and g.degree(4) == 2
    assert not g.has_edge(0, 1)
    assert not g.has_edge(2, 3)


def test_star_is_bridges_only():
    g = star(4)
    assert g.n == 5 and g.m == 4
    assert len(bridges(g)) == 4
    assert diameter(g) == 2


def test_petersen_is_the_famous_graph():
    g = petersen()
    assert g.n == 10 and g.m == 15
    assert diameter(g) == 2
    assert is_two_connected(g)
    assert oracles.brute_srg_parameters(g) == (10, 3, 0, 1)


def test_wheel_shape():
    g = wheel(5)
    assert g.n == 6 and g.m == 10
    assert g.degree(5) == 5
    assert diameter(g) == 2


def test_tight_example_structure():
    g = tight_example(2, 3)
    assert g.n == 1 + 2 + 6
    assert g.m == 2 + 3 + 6
    assert diameter(g) == 2
    assert len(bridges(g)) == 2
    assert cut_vertices(g) == (0,)
    assert g.degree(0) == g.n - 1


def test_random_diam2_deterministic_and_diameter_two():
    a = random_diam2(10, 0.4, 7)
    b = random_diam2(10, 0.4, 7)
    assert a.graph == b.graph
    assert a.tries == b.tries
    assert diameter(a.graph) == 2
    c = random_diam2(10, 0.4, 8)
    assert c.graph != a.graph


def test_random_diam2_respects_flags():
    g = random_diam2(9, 0.35, 3, require_bridgeless=True).graph
    assert not bridges(g)
    h = random_diam2(9, 0.35, 3, require_two_connected=True).graph
    assert is_two_connected(h)


def test_seeded_sampling_is_pinned():
    # Graphs and try counts of seeded sampling, hashed: a change to the
    # sampler or to the diameter test it rejects by must not move them.
    h = hashlib.sha256()
    for i in range(300):
        r = random_diam2(n := 8 + i % 28, 0.45, child_seed(1, i))
        h.update(f"{n} {r.tries} {r.graph.edges}\n".encode())
    for i in range(40):
        for tag, flag in (("b", "require_bridgeless"), ("t", "require_two_connected")):
            r = random_diam2(9 + i % 8, 0.35, f"pin/{i}", max_tries=500, **{flag: True})
            h.update(f"{tag} {r.tries} {r.graph.edges}\n".encode())
    assert h.hexdigest()[:16] == "35df444eeac58bd6"


def test_random_diam2_gives_up():
    with pytest.raises(GenerationFailed):
        random_diam2(3, 0.05, 1, max_tries=3)
    with pytest.raises(InvalidSpec):
        random_diam2(2, 0.5, 1)
    with pytest.raises(InvalidSpec):
        random_diam2(5, 0.0, 1)


def test_genspec_dispatch():
    assert GenSpec("cycle", {"n": 6}).build().graph == cycle(6)
    assert GenSpec("petersen").build().graph == petersen()
    assert GenSpec("tight", {"k": 1, "r": 2}).build().graph == tight_example(1, 2)
    got = GenSpec("random-diam2", {"n": 8, "p": 0.5, "seed": 1}).build().graph
    assert got == random_diam2(8, 0.5, 1).graph


def test_genspec_errors():
    with pytest.raises(InvalidSpec):
        GenSpec("moebius", {"n": 5}).build()
    with pytest.raises(InvalidSpec):
        GenSpec("cycle", {}).build()
    with pytest.raises(InvalidSpec):
        GenSpec("random-diam2", {"n": 8}).build()


@pytest.mark.parametrize(
    "family,params",
    [
        ("complete", {"n": True}),
        ("complete-bipartite", {"s": 2, "t": 3.0}),
        ("random-diam2", {"n": 8, "p": True, "seed": 1}),
        ("random-diam2", {"n": 8, "p": 0.5, "seed": 1, "max_tries": True}),
    ],
)
def test_genspec_rejects_wrong_typed_params(family, params):
    # bool is an int subclass, so it needs its own refusal.
    with pytest.raises(InvalidSpec):
        GenSpec(family, params).build()


def test_genspec_describe_is_stable():
    spec = GenSpec("random-diam2", {"p": 0.4, "n": 9, "seed": 2})
    assert spec.describe() == "family=random-diam2 n=9 p=0.4 seed=2"


def test_child_seed_distinct_streams():
    assert child_seed(3, 0) == "3/0"
    assert child_seed(3, 1) != child_seed(3, 0)
    assert child_seed(31, 0) != child_seed(3, 10)
