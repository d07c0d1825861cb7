"""Run reports: one nested dict per command, rendered as text or JSON.

The structured format is plain JSON with sorted keys, so reports round-trip
losslessly and repeated runs diff cleanly. Its bytes are exactly those of
json.dumps(report, indent=2, sort_keys=True) plus a newline; every dict key
must be a str. The text format is an indented key/value rendering of the
same dict for reading in a terminal.

Integer tables, the bulk of a large report, render by column: a list of
non-empty plain-int lists (coloring and witness rows) or of dicts that share
one set of str keys, each value such a list ({"pair", "path"} witness rows).
Each column is checked and laid out by C-level calls on its repr, so the
bytes stay those of json.dumps; any other list renders item by item.

Timing lives under the single key "elapsed_ms"; strip_timing removes every
occurrence so determinism checks can compare the rest byte for byte.
"""

from __future__ import annotations

import json
from itertools import chain
from json.encoder import encode_basestring_ascii as _encode_str
from operator import itemgetter
from typing import Any

TIMING_KEY = "elapsed_ms"


def make_report(
    command: str,
    input_block: dict[str, Any],
    outcome: dict[str, Any],
    *,
    seed: int | str | None = None,
    elapsed_ms: float | None = None,
) -> dict[str, Any]:
    report: dict[str, Any] = {"command": command, "input": input_block, "outcome": outcome}
    if seed is not None:
        report["seed"] = seed
    if elapsed_ms is not None:
        report[TIMING_KEY] = round(elapsed_ms, 3)
    return report


def render_json(report: dict[str, Any]) -> str:
    """The report as JSON, byte for byte json.dumps(report, indent=2,
    sort_keys=True) + "\n", without that call's pure-Python encoder.

    Dict keys must be str: any other key raises TypeError, where json.dumps
    would coerce it to a string.
    """
    out: list[str] = []
    _encode(report, "\n", out)
    out.append("\n")
    return "".join(out)


def _encode(value: Any, nl: str, out: list[str]) -> None:
    """Append value's indented JSON to out; nl is a newline plus the indent
    of the line value starts on."""
    if isinstance(value, str):
        out.append(_encode_str(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
            out.append(sep + _encode_str(key) + ": ")
            _encode(value[key], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = nl + "  "
        # type() rather than isinstance, so bools take the general path.
        if set(map(type, value)) == {int}:
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, value)) + nl + "]")
            return
        table = _table(value, inner) if type(value) is list else None
        if table is not None:
            out.append("[" + inner + table + nl + "]")
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _encode(item, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    else:
        out.append(json.dumps(value))


def _int_rows(rows: list, sep: str) -> str | None:
    """The rows of a list of non-empty plain-int lists, each row's ints joined
    by sep and the rows by "\0"; None for any other list."""
    if (
        set(map(type, rows)) != {list}
        or not all(rows)
        or set(map(type, chain.from_iterable(rows))) != {int}
    ):
        return None
    # The repr holds only digits, "-", brackets and ", ".
    return repr(rows)[2:-2].replace("], [", "\0").replace(", ", sep)


def _table(rows: list, nl: str) -> str | None:
    """The items of an integer table as indented JSON, joined by "," + nl,
    where nl starts each item's line; None when rows is not such a table.

    A table is a list of non-empty plain-int lists, or of dicts that share
    one set of keys with every value such a list; dict rows are laid out
    column by column through one format string. A key that is not a str
    raises TypeError here too, from the sort or from the key encoder.
    """
    inner = nl + "  "
    first = rows[0]
    if type(first) is list:
        body = _int_rows(rows, "," + inner)
        if body is None:
            return None
        return "[" + inner + body.replace("\0", nl + "]," + nl + "[" + inner) + nl + "]"
    if (
        type(first) is not dict
        or not first
        or set(map(type, rows)) != {dict}
        or not all(map(first.keys().__eq__, map(dict.keys, rows)))
    ):
        return None
    keys = sorted(first)
    cols = []
    for key in keys:
        col = _int_rows(list(map(itemgetter(key), rows)), "," + inner + "  ")
        if col is None:
            return None
        cols.append(col.split("\0"))
    fields = ("," + inner).join(
        _encode_str(key).replace("%", "%%") + ": [" + inner + "  %s" + inner + "]"
        for key in keys
    )
    return ("," + nl).join(map(("{" + inner + fields + nl + "}").__mod__, zip(*cols)))


def parse_structured(text: str) -> dict[str, Any]:
    return json.loads(text)


def _leaf(value: Any) -> str:
    if isinstance(value, str):
        return value
    if value is None or isinstance(value, bool):
        return json.dumps(value)
    return str(value)


def _is_leaf_list(value: list) -> bool:
    return all(not isinstance(v, (dict, list)) for v in value)


def _render_lines(data: dict[str, Any], indent: int, out: list[str]) -> None:
    pad = "  " * indent
    for key, value in data.items():
        if isinstance(value, dict):
            if not value:
                out.append(f"{pad}{key}: {{}}")
                continue
            out.append(f"{pad}{key}:")
            _render_lines(value, indent + 1, out)
        elif isinstance(value, list):
            if not value:
                out.append(f"{pad}{key}: []")
            elif _is_leaf_list(value):
                out.append(f"{pad}{key}: " + " ".join(_leaf(v) for v in value))
            else:
                out.append(f"{pad}{key}:")
                for item in value:
                    if isinstance(item, dict):
                        out.append(f"{pad}  -")
                        _render_lines(item, indent + 2, out)
                    elif isinstance(item, list) and _is_leaf_list(item):
                        out.append(f"{pad}  - " + " ".join(_leaf(v) for v in item))
                    else:
                        out.append(f"{pad}  - {_leaf(item)}")
        else:
            out.append(f"{pad}{key}: {_leaf(value)}")


def render_text(report: dict[str, Any]) -> str:
    lines: list[str] = []
    _render_lines(report, 0, lines)
    return "\n".join(lines) + "\n"


def render_report(report: dict[str, Any], fmt: str) -> str:
    if fmt == "structured":
        return render_json(report)
    if fmt == "text":
        return render_text(report)
    raise ValueError(f"unknown report format {fmt!r}")


def strip_timing(report: Any) -> Any:
    """Copy of the report with every elapsed_ms key removed, at any depth."""
    if isinstance(report, dict):
        return {
            k: strip_timing(v) for k, v in report.items() if k != TIMING_KEY
        }
    if isinstance(report, list):
        return [strip_timing(v) for v in report]
    return report
