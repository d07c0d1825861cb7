import pytest

from rainbowconn.coloring import EdgeColoring
from rainbowconn.errors import ColoringMismatch, InvalidEdge
from rainbowconn.generators import cycle


def test_from_map_normalizes_keys():
    c = EdgeColoring.from_map({(3, 1): 2, (0, 1): 1})
    assert c.color(1, 3) == 2
    assert c.color(3, 1) == 2
    assert c.color_count == 2
    assert c.m == 2


def test_from_map_rejects_bad_colors():
    with pytest.raises(ColoringMismatch):
        EdgeColoring.from_map({(0, 1): 0})
    with pytest.raises(ColoringMismatch):
        EdgeColoring.from_map({(0, 1): "red"})
    with pytest.raises(InvalidEdge):
        EdgeColoring.from_map({(2, 2): 1})


def test_from_map_rejects_bool_colors():
    # A bool would be written to a coloring file as "True", which
    # parse_coloring rejects.
    with pytest.raises(ColoringMismatch, match=r"^edge \(0, 1\) has invalid color True$"):
        EdgeColoring.from_map({(0, 1): True, (1, 2): 2})
    with pytest.raises(ColoringMismatch, match="invalid color False"):
        EdgeColoring.from_map({(1, 0): False})


def test_from_sequence_aligns_with_sorted_edges():
    g = cycle(4)
    c = EdgeColoring.from_sequence(g, [1, 2, 1, 2])
    assert g.edges == ((0, 1), (0, 3), (1, 2), (2, 3))
    assert c.color(0, 1) == 1
    assert c.color(0, 3) == 2
    assert c.as_sequence(g) == (1, 2, 1, 2)


def test_from_sequence_length_mismatch():
    with pytest.raises(ColoringMismatch):
        EdgeColoring.from_sequence(cycle(4), [1, 2])


def test_colors_used_counts_distinct():
    c = EdgeColoring.from_map({(0, 1): 7, (1, 2): 7, (2, 3): 2})
    assert c.colors_used == 2
    assert c.color_count == 7


def test_ensure_covers():
    g = cycle(4)
    good = EdgeColoring.from_sequence(g, [1, 1, 1, 1])
    good.ensure_covers(g)
    missing = EdgeColoring.from_map({(0, 1): 1})
    with pytest.raises(ColoringMismatch):
        missing.ensure_covers(g)
    extra = EdgeColoring.from_map(
        {(0, 1): 1, (0, 3): 1, (1, 2): 1, (2, 3): 1, (0, 2): 1}
    )
    with pytest.raises(ColoringMismatch):
        extra.ensure_covers(g)


@pytest.mark.parametrize(
    "mapping, message",
    [
        (
            {(0, 1): 1, (0, 3): 1, (1, 2): 1},
            "coloring does not match edge set: 1 uncolored (e.g. (2, 3))",
        ),
        (
            {(0, 1): 1, (0, 3): 1, (1, 2): 1, (2, 3): 1, (1, 3): 2, (0, 2): 2},
            "coloring does not match edge set: 2 unknown (e.g. (0, 2))",
        ),
        (
            {(0, 1): 1, (0, 3): 1, (0, 2): 1},
            "coloring does not match edge set: 2 uncolored (e.g. (1, 2)),"
            " 1 unknown (e.g. (0, 2))",
        ),
    ],
    ids=["missing", "extra", "both"],
)
def test_as_sequence_mismatch_messages(mapping, message):
    with pytest.raises(ColoringMismatch) as info:
        EdgeColoring.from_map(mapping).as_sequence(cycle(4))
    assert str(info.value) == message


def test_items_sorted():
    c = EdgeColoring.from_map({(2, 3): 1, (0, 1): 2})
    assert list(c.items()) == [((0, 1), 2), ((2, 3), 1)]


def test_empty_coloring():
    c = EdgeColoring.from_map({})
    assert c.m == 0
    assert c.color_count == 0
    assert c.colors_used == 0
