"""Run reports: one nested dict per command, rendered as text or JSON.

The structured format is plain JSON with sorted keys, so reports round-trip
losslessly and repeated runs diff cleanly. Its bytes are exactly those of
json.dumps(report, indent=2, sort_keys=True) plus a newline; every dict key
must be a str. The text format is an indented key/value rendering of the
same dict for reading in a terminal. Timing lives under the single key
"elapsed_ms"; strip_timing removes every occurrence so determinism checks
can compare the rest byte for byte.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _encode_str
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
        if all(type(x) is int for x in value):
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, value)) + nl + "]")
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _encode(item, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    else:
        out.append(json.dumps(value))


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
