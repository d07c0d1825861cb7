"""Report construction and the two render formats."""

import enum
import json
import math

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from rainbowconn.report import (
    TIMING_KEY,
    make_report,
    parse_structured,
    render_json,
    render_report,
    render_text,
    strip_timing,
)


def sample():
    return make_report(
        "color",
        {"path": "g.txt", "n": 5, "m": 6},
        {
            "verified": True,
            "colors_used": 3,
            "coloring": [{"edge": [0, 1], "color": 2}, {"edge": [1, 2], "color": 1}],
            "failing_pair": None,
            "tags": ["a", "b"],
            "empty_list": [],
            "empty_map": {},
        },
        seed=7,
        elapsed_ms=12.3456,
    )


def test_make_report_shape():
    rep = sample()
    assert rep["command"] == "color"
    assert rep["seed"] == 7
    assert rep[TIMING_KEY] == 12.346
    assert rep["input"]["n"] == 5


def test_make_report_optional_fields_absent():
    rep = make_report("verify", {}, {})
    assert "seed" not in rep
    assert TIMING_KEY not in rep


def test_render_json_round_trip():
    rep = sample()
    text = render_json(rep)
    assert text.endswith("\n")
    assert parse_structured(text) == rep


def test_render_json_sorts_keys():
    text = render_json({"b": 1, "a": 2})
    assert text.index('"a"') < text.index('"b"')


def json_dumps_reference(value):
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf]),
    st.text(),
    st.text(alphabet=st.characters(max_codepoint=0x1F)),
    # int lists with bools mixed in take the general path, not the int join
    st.lists(st.one_of(st.integers(), st.booleans())),
)

JSON_VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.dictionaries(st.text(), children),
    ),
    max_leaves=40,
)


@settings(max_examples=300)
@given(JSON_VALUES)
@example({"a": [[], {}, ()], "b": {"c": {"d": []}}})
@example([1, True, 2, False, 2**70, -(2**65)])
@example([-0.0, math.nan, math.inf, -math.inf])
@example({"é\u2603\U0001f600": "\x00\x1f\n\t\"\\ \u00ff\ud800"})
def test_render_json_matches_json_dumps_bytes(value):
    assert render_json(value) == json_dumps_reference(value)


class Color(enum.IntEnum):
    RED = 1


INT_ROWS = st.lists(st.integers(min_value=-(2**70), max_value=2**70), min_size=1, max_size=4)
TABLE_KEYS = st.one_of(
    st.sampled_from(["pair", "path", "%", "%s", "a%%d", "{0}", "{", "é", "\u2603", 'q"\\']),
    st.text(max_size=3),
)
# Cells and rows that leave the table path for the per-item one.
ODD_CELLS = st.one_of(
    st.just([]),
    st.lists(st.one_of(st.integers(), st.booleans()), min_size=1, max_size=3),
    st.just([1, True]),
    INT_ROWS.map(tuple),
    st.just([Color.RED, 2]),
    st.just([[1, 2]]),
    st.just([1.5]),
    st.integers(),
    st.none(),
    st.text(max_size=2),
)


@st.composite
def int_tables(draw):
    """A list of int lists or of same-key dicts of int lists, sometimes with
    one row or cell changed so that it is no longer a table, sometimes inside
    a dict or list so that it starts at a deeper indent."""
    if draw(st.booleans()):
        rows = draw(st.lists(INT_ROWS, min_size=1, max_size=6))
    else:
        keys = draw(st.lists(TABLE_KEYS, min_size=1, max_size=3, unique=True))
        rows = draw(
            st.lists(st.fixed_dictionaries({k: INT_ROWS for k in keys}), min_size=1, max_size=6)
        )
    change = draw(st.sampled_from(["none", "none", "row", "cell", "key", "tuple"]))
    i = draw(st.integers(min_value=0, max_value=len(rows) - 1))
    if change == "row":
        rows[i] = draw(ODD_CELLS | st.just({}) | st.just(Color.RED))
    elif change == "cell" and isinstance(rows[i], dict):
        rows[i][draw(st.sampled_from(sorted(rows[i])))] = draw(ODD_CELLS)
    elif change == "cell":
        rows[i] = [*rows[i], draw(st.one_of(st.booleans(), st.just(Color.RED), st.floats()))]
    elif change == "key" and isinstance(rows[i], dict):
        rows[i][draw(TABLE_KEYS)] = draw(INT_ROWS)
        if draw(st.booleans()):
            del rows[i][sorted(rows[i])[0]]
    elif change == "tuple":
        rows = tuple(rows)
    for key in draw(st.lists(st.one_of(TABLE_KEYS, st.none()), max_size=2)):
        rows = [rows] if key is None else {key: rows}
    return rows


@settings(max_examples=300)
@given(int_tables())
@example([[0, 1, 2], [1, -2, 3]])
@example({"w": [{"pair": [0, 1], "path": [0, 1]}, {"pair": [0, 2], "path": [0, 3, 2]}]})
@example([{"%s": [1], "{é}": [2, 3]}])
@example([[1], [True]])
@example([[1], []])
@example([{"a": [1]}, {"b": [1]}])
@example([{"a": [1]}, {"a": 1}])
@example([{"a": [1]}, {"a": (1,)}])
@example([[Color.RED], [1]])
@example(([1, 2], [3]))
def test_render_json_int_tables_match_json_dumps_bytes(value):
    assert render_json(value) == json_dumps_reference(value)


def test_render_json_rejects_non_str_keys():
    # json.dumps would coerce these keys to strings; reports use str keys only.
    for value in ({1: "a"}, {"outer": {None: 1}}, [{2.5: []}], {True: 1}, [{1: [1]}], [{None: [1]}]):
        json_dumps_reference(value)
        with pytest.raises(TypeError):
            render_json(value)


def test_render_json_rejects_unserializable_values():
    with pytest.raises(TypeError):
        render_json({"s": {1, 2}})


def test_render_text_nesting():
    out = render_text(sample())
    lines = out.splitlines()
    assert "command: color" in lines
    assert "input:" in lines
    assert "  n: 5" in lines
    # scalar lists join on one line
    assert "  tags: a b" in lines
    # dict lists use item markers
    assert "  coloring:" in lines
    assert "    -" in lines
    assert "      edge: 0 1" in lines
    assert "  empty_list: []" in lines
    assert "  empty_map: {}" in lines


def test_render_text_booleans_and_null():
    out = render_text({"ok": True, "bad": False, "missing": None})
    assert "ok: true" in out
    assert "bad: false" in out
    assert "missing: null" in out


def test_render_report_dispatch():
    rep = sample()
    assert render_report(rep, "structured") == render_json(rep)
    assert render_report(rep, "text") == render_text(rep)
    with pytest.raises(ValueError):
        render_report(rep, "yaml")


def test_strip_timing_every_depth():
    rep = {
        TIMING_KEY: 1.0,
        "outcome": {TIMING_KEY: 2.0, "keep": 1},
        "runs": [{TIMING_KEY: 3.0, "n": 4}, {"n": 5}],
    }
    stripped = strip_timing(rep)
    assert stripped == {"outcome": {"keep": 1}, "runs": [{"n": 4}, {"n": 5}]}
    # input untouched
    assert TIMING_KEY in rep


def test_strip_timing_passthrough_scalars():
    assert strip_timing(5) == 5
    assert strip_timing("x") == "x"
    assert strip_timing([1, {"elapsed_ms": 2, "a": 3}]) == [1, {"a": 3}]
