"""Command line front end.

Subcommands: analyze, color, verify, exact, gen, fuzz. Every command prints
a report (text by default, JSON with --format structured) except gen, which
emits an edge list directly. Exit codes are a stable contract:

    0  success / verified
    1  verification or construction failure
    2  input error
    3  search stopped early (budget or size cutoff)
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from pathlib import Path

from .colorer import (
    BridgedCutVertex,
    BridgelessCutVertex,
    CompleteLike,
    Diam2Classification,
    TwoConnected,
    _color_classified,
    classify,
    color_diam2,
    guarantee_for,
)
from .coloring import EdgeColoring
from .errors import (
    CapExceeded,
    ColoringMismatch,
    ConstructionFailure,
    GenerationFailed,
    IndexOutOfRange,
    InvalidEdge,
    InvalidSpec,
    OutOfScopeGraph,
    ParseError,
)
from .exact import DEFAULT_BUDGET, DEFAULT_MAX_EDGES_FULL, exact_rc
from .fileio import format_coloring, format_edge_list, parse_coloring, parse_edge_list
from .generators import GenSpec, child_seed
from .graph import Graph, bridges, cut_vertices, diameter, is_two_connected, srg_parameters
from .report import make_report, render_report
from .verify import verify_rainbow_connected

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

_INPUT_ERRORS = (
    ParseError,
    InvalidSpec,
    ColoringMismatch,
    InvalidEdge,
    IndexOutOfRange,
    OutOfScopeGraph,
    CapExceeded,
    OSError,
)

DEFAULT_FUZZ_BUDGET = 200_000
DEFAULT_FINDINGS_FILE = "rc5-findings.txt"


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _load_graph(path: str) -> Graph:
    return parse_edge_list(_read_text(path))


def _write_text(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cut_facts(g: Graph, cls: Diam2Classification) -> tuple[int, list[int]]:
    """Bridge count and cut vertices of g. A class in scope fixes both: the
    cut vertex and its pendant bridges, or none except K2's one bridge; only
    a graph outside the classes needs the lowlink scan."""
    if isinstance(cls, BridgedCutVertex):
        return cls.bridge_count, [cls.cut_vertex]
    if isinstance(cls, BridgelessCutVertex):
        return 0, [cls.cut_vertex]
    if isinstance(cls, TwoConnected):
        return 0, []
    if isinstance(cls, CompleteLike):
        return int(g.n == 2), []
    return len(bridges(g)), list(cut_vertices(g))


def _input_block(path: str, g: Graph, cls: Diam2Classification) -> dict:
    bridge_count, cuts = _cut_facts(g, cls)
    block = {
        "path": path,
        "n": g.n,
        "m": g.m,
        "diameter": diameter(g),
        "bridge_count": bridge_count,
        "cut_vertices": cuts,
        "classification": cls.tag,
        "guarantee": guarantee_for(cls),
    }
    srg = srg_parameters(g)
    if srg is not None:
        block["srg"] = {"n": srg.n, "k": srg.k, "lambda": srg.lam, "mu": srg.mu}
    return block


def _witness_list(witnesses: dict) -> list[dict]:
    # The verifier yields the pairs in ascending order.
    return [{"pair": [s, t], "path": list(p)} for (s, t), p in witnesses.items()]


def _coloring_rows(coloring: EdgeColoring) -> list[list[int]]:
    return [[u, v, c] for (u, v), c in coloring.items()]


def _emit(report: dict, args) -> None:
    _write_text(render_report(report, args.format), getattr(args, "report_out", None))


# ---------------------------------------------------------------------------
# Commands


def cmd_analyze(args) -> int:
    t0 = time.perf_counter()
    g = _load_graph(args.graph)
    block = _input_block(args.graph, g, classify(g))
    outcome = {
        "two_connected": is_two_connected(g),
        "bridges": [list(e) for e in bridges(g)],
        "degrees": [g.degree(v) for v in range(g.n)],
    }
    srg = block.get("srg")
    if srg is not None and srg["mu"] >= 1 and block["diameter"] == 2:
        outcome["note"] = (
            "strongly regular with mu >= 1: diameter 2, five colors always suffice"
        )
    rep = make_report(
        "analyze", block, outcome, elapsed_ms=(time.perf_counter() - t0) * 1000
    )
    _emit(rep, args)
    return EXIT_OK


def cmd_color(args) -> int:
    t0 = time.perf_counter()
    g = _load_graph(args.graph)
    cls = classify(g)
    block = _input_block(args.graph, g, cls)
    try:
        result = _color_classified(
            g, cls, center=args.center, want_witnesses=args.witnesses
        )
    except ConstructionFailure as exc:
        outcome = {
            "verified": False,
            "error": str(exc),
            "failing_pair": list(exc.failing_pair) if exc.failing_pair else None,
            "attempts": exc.attempts,
        }
        rep = make_report(
            "color", block, outcome, elapsed_ms=(time.perf_counter() - t0) * 1000
        )
        _emit(rep, args)
        return EXIT_FAILED
    prov = result.provenance
    outcome = {
        "verified": True,
        "colors_used": result.colors_used,
        "guarantee": result.guarantee,
        "classification": result.classification.tag,
        "provenance": {
            "style": prov.style,
            "center": prov.center,
            "forest_seed": prov.forest_seed,
            "variant": prov.variant,
            "attempts": prov.attempts,
            "repair_used": prov.repair_used,
        },
        "coloring": _coloring_rows(result.coloring),
    }
    if args.witnesses:
        outcome["witnesses"] = _witness_list(result.certificate.witnesses)
    text = format_coloring(
        result.coloring,
        header=[
            f"rainbow coloring of {args.graph}",
            f"colors_used {result.colors_used} guarantee {result.guarantee}",
        ],
    )
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        outcome["coloring_file"] = args.out
    rep = make_report(
        "color", block, outcome, elapsed_ms=(time.perf_counter() - t0) * 1000
    )
    _emit(rep, args)
    return EXIT_OK


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    g = _load_graph(args.graph)
    coloring = parse_coloring(_read_text(args.coloring))
    cert = verify_rainbow_connected(g, coloring, want_witnesses=args.witnesses)
    outcome = {
        "connected": cert.connected,
        "colors_used": coloring.colors_used,
        "failing_pair": list(cert.failing_pair) if cert.failing_pair else None,
    }
    if args.witnesses and cert.witnesses is not None:
        outcome["witnesses"] = _witness_list(cert.witnesses)
    rep = make_report(
        "verify",
        _input_block(args.graph, g, classify(g)),
        outcome,
        elapsed_ms=(time.perf_counter() - t0) * 1000,
    )
    _emit(rep, args)
    return EXIT_OK if cert.connected else EXIT_FAILED


def cmd_exact(args) -> int:
    t0 = time.perf_counter()
    g = _load_graph(args.graph)
    result = exact_rc(
        g,
        budget=args.budget,
        max_colors=args.max_colors,
        max_edges_full=args.max_edges_full,
    )
    outcome = {
        "lower": result.lower,
        "upper": result.upper,
        "exact": result.exact,
        "is_exact": result.is_exact,
        "colorings_tested": result.colorings_tested,
        "budget_exhausted": result.budget_exhausted,
    }
    if result.witness is not None:
        outcome["witness"] = _coloring_rows(result.witness)
    rep = make_report(
        "exact",
        _input_block(args.graph, g, classify(g)),
        outcome,
        elapsed_ms=(time.perf_counter() - t0) * 1000,
    )
    _emit(rep, args)
    return EXIT_OK if result.is_exact else EXIT_BUDGET


def _parse_param_value(text: str):
    if ".." in text:
        lo, _, hi = text.partition("..")
        try:
            return (int(lo), int(hi))
        except ValueError:
            raise InvalidSpec(f"bad range {text!r}; expected LO..HI integers") from None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _parse_params(tokens: list[str]) -> dict:
    params: dict = {}
    for tok in tokens:
        key, eq, val = tok.partition("=")
        if not eq or not key:
            raise InvalidSpec(f"parameter {tok!r} is not KEY=VALUE")
        params[key.replace("-", "_")] = _parse_param_value(val)
    return params


def cmd_gen(args) -> int:
    params = _parse_params(args.params)
    for key, val in params.items():
        if isinstance(val, tuple):
            raise InvalidSpec(f"parameter {key} uses a range; ranges are for fuzz")
    if args.family == "random-diam2":
        params.setdefault("seed", args.seed)
    spec = GenSpec(args.family, params)
    result = spec.build()
    text = format_edge_list(
        result.graph, header=[spec.describe(), f"tries {result.tries}"]
    )
    _write_text(text, args.out)
    return EXIT_OK


def _instance_params(base: dict, index: int) -> dict:
    out: dict = {}
    for key, val in base.items():
        if isinstance(val, tuple):
            lo, hi = val
            if hi < lo:
                raise InvalidSpec(f"empty range for {key}: {lo}..{hi}")
            out[key] = lo + index % (hi - lo + 1)
        else:
            out[key] = val
    return out


def _fuzz_instances(args, base_params: dict, tallies: dict):
    """Yield (index, spec, graph) per instance; random-diam2 instances take a
    child seed, and failed generations are tallied and skipped."""
    for i in range(args.count):
        params = _instance_params(base_params, i)
        if args.family == "random-diam2":
            params["seed"] = child_seed(params.get("seed", args.seed), i)
        spec = GenSpec(args.family, params)
        try:
            g = spec.build().graph
        except GenerationFailed:
            tallies["generation_failed"] += 1
            continue
        yield i, spec, g


def _fuzz_validate(args, base_params: dict) -> tuple[dict, int]:
    histogram: dict[str, int] = {}
    tallies = {
        "generated": 0,
        "verified": 0,
        "out_of_scope": 0,
        "generation_failed": 0,
        "construction_failures": 0,
        "repairs_used": 0,
    }
    failures: list[dict] = []
    for i, spec, g in _fuzz_instances(args, base_params, tallies):
        tallies["generated"] += 1
        try:
            result = color_diam2(g)
        except OutOfScopeGraph:
            tallies["out_of_scope"] += 1
            continue
        except ConstructionFailure as exc:
            tallies["construction_failures"] += 1
            failures.append(
                {
                    "index": i,
                    "spec": spec.describe(),
                    "error": str(exc),
                    "failing_pair": list(exc.failing_pair) if exc.failing_pair else None,
                    "n": g.n,
                    "edges": [list(e) for e in g.edges],
                }
            )
            continue
        tallies["verified"] += 1
        if result.provenance.repair_used:
            tallies["repairs_used"] += 1
        key = str(result.colors_used)
        histogram[key] = histogram.get(key, 0) + 1
    outcome = {
        "mode": "validate",
        "count": args.count,
        **tallies,
        "colors_used_histogram": dict(sorted(histogram.items())),
    }
    if failures:
        outcome["failures"] = failures
    return outcome, EXIT_FAILED if tallies["construction_failures"] else EXIT_OK


def _append_finding(path: str, spec_desc: str, index: int, g: Graph, result) -> None:
    rc_note = (
        f"exact rc {result.exact}"
        if result.is_exact
        else f"rc bounds [{result.lower}, {result.upper}]"
    )
    text = format_edge_list(
        g, header=[f"finding: {rc_note}", f"{spec_desc} instance {index}"]
    )
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _fuzz_hunt(args, base_params: dict) -> tuple[dict, int]:
    findings_path = args.findings
    Path(findings_path).touch()
    tallies = {
        "instances": 0,
        "exact_count": 0,
        "bounds_count": 0,
        "skipped": 0,
        "generation_failed": 0,
        "findings": 0,
    }
    max_rc: int | None = None
    # Hunting samples bridgeless random graphs unless told otherwise.
    if args.family == "random-diam2":
        base_params = {"bridgeless": True, **base_params}
    for i, spec, g in _fuzz_instances(args, base_params, tallies):
        if diameter(g) != 2 or bridges(g):
            tallies["skipped"] += 1
            continue
        tallies["instances"] += 1
        result = exact_rc(g, budget=args.budget, max_edges_full=g.m)
        if result.is_exact:
            tallies["exact_count"] += 1
            max_rc = result.exact if max_rc is None else max(max_rc, result.exact)
        else:
            tallies["bounds_count"] += 1
        if (result.is_exact and result.exact >= 5) or result.lower >= 5:
            tallies["findings"] += 1
            _append_finding(findings_path, spec.describe(), i, g, result)
    outcome = {
        "mode": "hunt-rc5",
        "count": args.count,
        **tallies,
        "max_rc": max_rc,
        "findings_file": findings_path,
    }
    return outcome, EXIT_OK


def cmd_fuzz(args) -> int:
    t0 = time.perf_counter()
    base_params = _parse_params(args.params)
    if args.family == "random-diam2":
        base_params.setdefault("n", 8)
        base_params.setdefault("p", 0.45)
    if args.mode == "validate":
        outcome, code = _fuzz_validate(args, base_params)
    else:
        outcome, code = _fuzz_hunt(args, base_params)
    block = {"family": args.family, "params": {k: list(v) if isinstance(v, tuple) else v for k, v in sorted(base_params.items())}}
    rep = make_report(
        "fuzz",
        block,
        outcome,
        seed=args.seed,
        elapsed_ms=(time.perf_counter() - t0) * 1000,
    )
    _emit(rep, args)
    return code


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    """Return a fresh parser for the six subcommands on every call, so a
    caller may inspect or change it without affecting main."""
    parser = argparse.ArgumentParser(
        prog="rainbowconn",
        description="Rainbow connectivity toolkit for diameter-2 graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Every report command takes --format; all but color, whose --out names
    # the coloring file, also take --out for the report.
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format",
        choices=("text", "structured"),
        default="text",
        help="report rendering: human text or JSON",
    )
    report = argparse.ArgumentParser(add_help=False, parents=[fmt])
    report.add_argument(
        "--out",
        dest="report_out",
        default=None,
        help="write the report to this file instead of stdout",
    )

    p = sub.add_parser(
        "analyze", help="structural report for an edge-list file", parents=[report]
    )
    p.add_argument("graph", help="edge-list file, or - for stdin")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "color", help="construct and verify a rainbow coloring", parents=[fmt]
    )
    p.add_argument("graph", help="edge-list file, or - for stdin")
    p.add_argument(
        "--center",
        type=int,
        default=None,
        help="preferred center vertex for 2-connected graphs",
    )
    p.add_argument(
        "--witnesses", action="store_true", help="include a rainbow path per pair"
    )
    p.add_argument("--out", default=None, help="write the coloring file here")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser(
        "verify", help="check a coloring for rainbow connectivity", parents=[report]
    )
    p.add_argument("graph", help="edge-list file, or - for stdin")
    p.add_argument("coloring", help="coloring file (u v color per line)")
    p.add_argument(
        "--witnesses", action="store_true", help="include a rainbow path per pair"
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "exact", help="exact rainbow connection number by search", parents=[report]
    )
    p.add_argument("graph", help="edge-list file, or - for stdin")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--max-colors", type=int, default=None)
    p.add_argument("--max-edges-full", type=int, default=DEFAULT_MAX_EDGES_FULL)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("gen", help="emit a generated graph as an edge list")
    p.add_argument("family", help="cycle, complete, complete-bipartite, star, petersen, wheel, tight, random-diam2")
    p.add_argument("params", nargs="*", help="KEY=VALUE pairs, e.g. n=7 p=0.4")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="write the edge list here")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser(
        "fuzz", help="batch validation or extremal hunting", parents=[report]
    )
    p.add_argument("mode", choices=("validate", "hunt-rc5"))
    p.add_argument("family", nargs="?", default="random-diam2")
    p.add_argument(
        "params", nargs="*", help="KEY=VALUE pairs; VALUE may be a LO..HI range"
    )
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--budget", type=int, default=DEFAULT_FUZZ_BUDGET, help="per-graph search budget"
    )
    p.add_argument("--findings", default=DEFAULT_FINDINGS_FILE)
    p.set_defaults(func=cmd_fuzz)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first main call rather than at import. Reuse is safe:
    # parse_args returns a fresh Namespace, and the stored defaults are
    # immutables and the cmd_* functions.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand and return its exit code. May be called repeatedly
    in-process: every call reuses one parser, built on the first call."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except GenerationFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except ConstructionFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def run() -> None:
    raise SystemExit(main())
