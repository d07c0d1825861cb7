"""The benchmark's three workloads: inputs, requests, traced replays and checks.

Each workload is a fixed list of requests served closed-loop by one caller
in one thread: the next request starts when the previous one has returned.

- large-color: one random diameter-2 graph per size n in {100, 150, 200};
  each goes through `rainbowconn analyze`, `color` and `verify --witnesses`
  (in-process `cli.main`, `--format structured`). Structural analysis, the
  verifier's accepting path, witness extraction and report rendering
  dominate.
- fuzz-small: 1,500 small graphs (n = 8..35), each parsed, colored with
  `color_diam2` and re-verified, the path `fuzz validate` takes. Per-call
  overhead, classification and the repair loop dominate.
- exact-search: a fixed set of instances with at most 25 edges, each through
  `rainbowconn exact` with a 100k candidate budget. The enumerator and the
  verifier's rejecting path dominate.

The seed picks the random graphs of large-color and fuzz-small. The
exact-search instances are fixed so that every result can be checked against
a value recorded from the seed code; there the seed only orders the requests.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import re
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from rainbowconn import (
    EdgeColoring,
    GenSpec,
    build_graph,
    check_witness,
    child_seed,
    classify,
    color_diam2,
    bridges,
    cut_vertices,
    diameter,
    exact_rc,
    guarantee_for,
    is_two_connected,
    random_diam2,
    rc_lower_bound,
    srg_parameters,
    verify_rainbow_connected,
)
from rainbowconn import cli
from rainbowconn.fileio import (
    format_coloring,
    format_edge_list,
    parse_coloring,
    parse_edge_list,
)
from rainbowconn.report import make_report, render_report

# (n, p) per large-color graph. p shrinks with n so that G(n, p) has
# diameter 2 on the first few samples. n stops at 200: a pass then takes a
# few seconds, so a run's median is over ten or more passes, and the heap
# stays small enough for the scaling to the reference speed (refloop.py) to
# hold. README.md gives the spreads measured at n = 400.
LARGE_SIZES = ((100, 0.35), (150, 0.3), (200, 0.25))
SMOKE_LARGE_SIZES = ((12, 0.6), (16, 0.5))

FUZZ_P = 0.45
FUZZ_N_RANGE = (8, 35)
# random_diam2 graphs, tight_example(k, r) graphs, and apex-over-components
# graphs (one cut vertex, no bridges); the last two cover the cut-vertex routes.
FUZZ_COUNTS = (1350, 75, 75)
SMOKE_FUZZ_COUNTS = (16, 2, 2)

# Large enough for every instance but random-9-1 to finish; random-9-1 stops
# at the budget, which keeps its request near a second.
EXACT_BUDGET = 100_000
EXACT_MAX_EDGES = 25


def _random_instance(n: int, p: float, index: int) -> GenSpec:
    params = {"n": n, "p": p, "seed": f"exact/{n}/{index}", "bridgeless": True}
    return GenSpec("random-diam2", params)


# name -> (generator spec, true rainbow connection number). Values were
# recorded by running exact_rc on the seed code. tight-2-2 has rc 3 although
# its bridged budget is k + 2 = 4. random-9-1 ends with bounds only under the
# budget; its rc of 2 was found by searching relabelled copies of the graph.
EXACT_INSTANCES = {
    "petersen": (GenSpec("petersen"), 3),
    "cycle-7": (GenSpec("cycle", {"n": 7}), 4),
    "tight-1-2": (GenSpec("tight", {"k": 1, "r": 2}), 3),
    "tight-2-2": (GenSpec("tight", {"k": 2, "r": 2}), 3),
    "tight-2-3": (GenSpec("tight", {"k": 2, "r": 3}), 3),
    "tight-3-3": (GenSpec("tight", {"k": 3, "r": 3}), 3),
    "tight-1-4": (GenSpec("tight", {"k": 1, "r": 4}), 3),
    "random-9-0": (_random_instance(9, 0.5, 0), 2),
    "random-9-3": (_random_instance(9, 0.5, 3), 2),
    "random-10-2": (_random_instance(10, 0.45, 2), 2),
    "random-9-1": (_random_instance(9, 0.5, 1), 2),
}
SMOKE_EXACT = ("cycle-7", "tight-1-2", "petersen")

WITNESS_SAMPLE = 256
_TIMING_FIELD = re.compile(r'"elapsed_ms": [-0-9.eE+]+')


def report_digest(code: int, text: str) -> str:
    """Digest of an exit code and a structured report, timing removed."""
    body = _TIMING_FIELD.sub('"elapsed_ms": 0', text)
    return hashlib.sha256(f"{code}\n{body}".encode()).hexdigest()


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@dataclass
class Request:
    kind: str
    label: str
    # serve(tracer or None) -> raw result: the timed part of the request.
    serve: Callable
    # settle(raw result) -> Output: checks and digest, outside the timing.
    settle: Callable


@dataclass
class Output:
    code: int
    text: str
    # Immediate check failures, empty when the output passed them.
    problems: list
    digest: str
    counts: dict


# ---------------------------------------------------------------------------
# Input generation (set-up)


def _write(tracer, path: Path, g, header) -> None:
    path.write_text(tracer.call("fileio.format", format_edge_list, g, header), encoding="utf-8")


def _sample(tracer, counts: dict, fn, *args):
    res = tracer.call("generators.sample", fn, *args)
    counts["tries"] += res.tries
    return res.graph


def _apex_graph(rng: random.Random):
    """Vertex 0 joined to every vertex of 2..5 disjoint paths of 2..4 vertices."""
    edges = []
    nxt = 1
    for _ in range(rng.randint(2, 5)):
        size = rng.randint(2, 4)
        members = list(range(nxt, nxt + size))
        nxt += size
        edges += [(0, v) for v in members]
        edges += list(zip(members, members[1:]))
    return build_graph(nxt, edges)


def generate(workload: str, seed: int, workdir: Path, smoke: bool, tracer) -> dict:
    """Write the workload's input files; return {"tries": generator tries}."""
    counts: dict = {"tries": 0}
    manifest: list[dict] = []
    if workload == "large-color":
        for i, (n, p) in enumerate(SMOKE_LARGE_SIZES if smoke else LARGE_SIZES):
            g = _sample(tracer, counts, random_diam2, n, p, f"large-color/{seed}/{i}")
            name = f"graph-{n}.txt"
            _write(tracer, workdir / name, g, [f"random_diam2 n={n} p={p}"])
            manifest.append({"name": name, "n": n, "m": g.m})
    elif workload == "fuzz-small":
        n_random, n_tight, n_apex = SMOKE_FUZZ_COUNTS if smoke else FUZZ_COUNTS
        lo, hi = FUZZ_N_RANGE
        blocks = []
        for i in range(n_random):
            n = lo + i % (hi - lo + 1)
            g = _sample(tracer, counts, random_diam2, n, FUZZ_P, child_seed(seed, i))
            blocks.append(("random", g))
        for j in range(n_tight):
            k, r = 1 + j % 4, 2 + (j // 4) % 5
            g = _sample(tracer, counts, GenSpec("tight", {"k": k, "r": r}).build)
            blocks.append((f"tight {k} {r}", g))
        for j in range(n_apex):
            g = _apex_graph(random.Random(f"fuzz-small/{seed}/apex/{j}"))
            blocks.append(("apex", g))
        with open(workdir / "graphs.txt", "w", encoding="utf-8") as fh:
            for i, (kind, g) in enumerate(blocks):
                fh.write(tracer.call("fileio.format", format_edge_list, g, [f"graph {i} {kind}"]))
        manifest = [{"index": i, "kind": kind} for i, (kind, _) in enumerate(blocks)]
    elif workload == "exact-search":
        names = list(SMOKE_EXACT if smoke else EXACT_INSTANCES)
        random.Random(f"exact-search/{seed}").shuffle(names)
        for name in names:
            g = _sample(tracer, counts, EXACT_INSTANCES[name][0].build)
            _write(tracer, workdir / f"{name}.txt", g, [name])
            manifest.append({"name": name})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    (workdir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return counts


def input_digest(workdir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(workdir.iterdir()):
        if path.is_file():
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def split_bundle(text: str) -> list[str]:
    parts = re.split(r"(?m)^(?=# graph \d+ )", text)
    return [p for p in parts if p]


# ---------------------------------------------------------------------------
# Traced replays: the public calls each CLI command makes, one span per call.


def _input_block(tr, path: str, g) -> dict:
    cls = tr.call("colorer.classify", classify, g)
    block = {
        "path": path,
        "n": g.n,
        "m": g.m,
        "diameter": tr.call("graph.diameter", diameter, g),
        "bridge_count": len(tr.call("graph.lowlink", bridges, g)),
        "cut_vertices": list(tr.call("graph.lowlink", cut_vertices, g)),
        "classification": cls.tag,
        "guarantee": guarantee_for(cls),
    }
    srg = tr.call("graph.srg", srg_parameters, g)
    if srg is not None:
        block["srg"] = {"n": srg.n, "k": srg.k, "lambda": srg.lam, "mu": srg.mu}
    return block


def _finish(tr, command: str, block: dict, outcome: dict) -> str:
    rep = tr.call("report.make", make_report, command, block, outcome, elapsed_ms=0.0)
    return tr.call("report.render", render_report, rep, "structured")


def _load_graph(tr, path: str):
    return tr.call("fileio.parse", parse_edge_list, Path(path).read_text(encoding="utf-8"))


def replay_analyze(tr, path: str) -> tuple[int, str]:
    g = _load_graph(tr, path)
    block = _input_block(tr, path, g)
    outcome = {
        "two_connected": tr.call("graph.two_connected", is_two_connected, g),
        "bridges": [list(e) for e in tr.call("graph.lowlink", bridges, g)],
        "degrees": [g.degree(v) for v in range(g.n)],
    }
    srg = block.get("srg")
    if srg is not None and srg["mu"] >= 1 and block["diameter"] == 2:
        outcome["note"] = (
            "strongly regular with mu >= 1: diameter 2, five colors always suffice"
        )
    return 0, _finish(tr, "analyze", block, outcome)


def replay_color(tr, path: str, out: str, counts: dict) -> tuple[int, str]:
    g = _load_graph(tr, path)
    block = _input_block(tr, path, g)
    result = tr.call("colorer.color", color_diam2, g, center=None, try_all_centers=False)
    _count_attempts(counts, result)
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
        "coloring": [[u, v, c] for (u, v), c in result.coloring.items()],
    }
    text = tr.call(
        "fileio.format",
        format_coloring,
        result.coloring,
        header=[
            f"rainbow coloring of {path}",
            f"colors_used {result.colors_used} guarantee {result.guarantee}",
        ],
    )
    Path(out).write_text(text, encoding="utf-8")
    outcome["coloring_file"] = out
    return 0, _finish(tr, "color", block, outcome)


def replay_witness(tr, path: str, coloring_path: str) -> tuple[int, str]:
    g = _load_graph(tr, path)
    coloring = tr.call(
        "fileio.parse", parse_coloring, Path(coloring_path).read_text(encoding="utf-8")
    )
    coloring.ensure_covers(g)
    cert = tr.call("verify.witness", verify_rainbow_connected, g, coloring, want_witnesses=True)
    outcome = {
        "connected": cert.connected,
        "colors_used": coloring.colors_used,
        "failing_pair": list(cert.failing_pair) if cert.failing_pair else None,
    }
    if cert.witnesses is not None:
        outcome["witnesses"] = [
            {"pair": list(pair), "path": list(p)} for pair, p in sorted(cert.witnesses.items())
        ]
    text = _finish(tr, "verify", _input_block(tr, path, g), outcome)
    return (0 if cert.connected else 1), text


def replay_exact(tr, path: str, counts: dict) -> tuple[int, str]:
    g = _load_graph(tr, path)
    # exact_rc computes this bound again inside; the separate call times it.
    tr.call("exact.lower_bound", rc_lower_bound, g)
    result = tr.call(
        "exact.search",
        exact_rc,
        g,
        budget=EXACT_BUDGET,
        max_colors=None,
        max_edges_full=EXACT_MAX_EDGES,
    )
    counts["candidates"] = counts.get("candidates", 0) + result.colorings_tested
    counts["unresolved"] = counts.get("unresolved", 0) + (not result.is_exact)
    outcome = {
        "lower": result.lower,
        "upper": result.upper,
        "exact": result.exact,
        "is_exact": result.is_exact,
        "colorings_tested": result.colorings_tested,
        "budget_exhausted": result.budget_exhausted,
    }
    if result.witness is not None:
        outcome["witness"] = [[u, v, c] for (u, v), c in result.witness.items()]
    text = _finish(tr, "exact", _input_block(tr, path, g), outcome)
    return (0 if result.is_exact else cli.EXIT_BUDGET), text


def _count_attempts(counts: dict, result) -> None:
    counts["color_calls"] = counts.get("color_calls", 0) + 1
    counts["attempts"] = counts.get("attempts", 0) + result.provenance.attempts
    counts["first_try"] = counts.get("first_try", 0) + (result.provenance.attempts == 1)


# ---------------------------------------------------------------------------
# Requests


def _settle_cli(allowed: tuple[int, ...]):
    def settle(raw) -> Output:
        code, text, counts = raw
        problems = [] if code in allowed else [f"exit code {code}, expected one of {allowed}"]
        return Output(code, text, problems, report_digest(code, text), counts)

    return settle


def large_color_requests(workdir: Path) -> list[Request]:
    reqs = []
    ok = _settle_cli((0,))
    for item in json.loads((workdir / "manifest.json").read_text()):
        path = str(workdir / item["name"])
        cpath = str(workdir / f"colors-{item['n']}.txt")
        n = item["n"]

        def analyze(tr, path=path):
            if tr is None:
                return (*_cli(["analyze", path, "--format", "structured"]), {})
            return (*replay_analyze(tr, path), {})

        def color(tr, path=path, cpath=cpath):
            counts: dict = {}
            if tr is None:
                argv = ["color", path, "--out", cpath, "--format", "structured"]
                return (*_cli(argv), counts)
            return (*replay_color(tr, path, cpath, counts), counts)

        def witness(tr, path=path, cpath=cpath):
            if tr is None:
                argv = ["verify", path, cpath, "--witnesses", "--format", "structured"]
                return (*_cli(argv), {})
            return (*replay_witness(tr, path, cpath), {})

        reqs += [
            Request("analyze", f"analyze n={n}", analyze, ok),
            Request("color", f"color n={n}", color, ok),
            Request("witness", f"witness n={n}", witness, ok),
        ]
    return reqs


def _validate(tr, text: str):
    counts: dict = {}
    if tr is None:
        g = parse_edge_list(text)
        result = color_diam2(g)
        recheck = verify_rainbow_connected(g, result.coloring, want_witnesses=False)
    else:
        g = tr.call("fileio.parse", parse_edge_list, text)
        result = tr.call("colorer.color", color_diam2, g)
        recheck = tr.call(
            "verify.verdict", verify_rainbow_connected, g, result.coloring, want_witnesses=False
        )
        _count_attempts(counts, result)
    return g, result, recheck, counts


def _settle_validate(raw) -> Output:
    g, result, recheck, counts = raw
    problems = []
    if not recheck.connected:
        problems.append(f"re-verification rejected, failing pair {recheck.failing_pair}")
    if result.colors_used > result.guarantee:
        problems.append(f"{result.colors_used} colors over budget {result.guarantee}")
    record = {
        "colors": result.coloring.as_sequence(g),
        "colors_used": result.colors_used,
        "guarantee": result.guarantee,
        "class": result.classification.tag,
        "attempts": result.provenance.attempts,
    }
    body = json.dumps(record, sort_keys=True)
    return Output(0, body, problems, hashlib.sha256(body.encode()).hexdigest(), counts)


def fuzz_small_requests(workdir: Path) -> list[Request]:
    texts = split_bundle((workdir / "graphs.txt").read_text(encoding="utf-8"))
    return [
        Request("validate", f"graph {i}", lambda tr, text=text: _validate(tr, text), _settle_validate)
        for i, text in enumerate(texts)
    ]


def exact_search_requests(workdir: Path) -> list[Request]:
    reqs = []
    settle = _settle_cli((0, cli.EXIT_BUDGET))
    for item in json.loads((workdir / "manifest.json").read_text()):
        path = str(workdir / f"{item['name']}.txt")

        def search(tr, path=path):
            counts: dict = {}
            if tr is None:
                argv = [
                    "exact", path, "--budget", str(EXACT_BUDGET),
                    "--max-edges-full", str(EXACT_MAX_EDGES), "--format", "structured",
                ]
                return (*_cli(argv), counts)
            return (*replay_exact(tr, path, counts), counts)

        reqs.append(Request("exact", item["name"], search, settle))
    return reqs


def requests(workload: str, workdir: Path) -> list[Request]:
    return {
        "large-color": large_color_requests,
        "fuzz-small": fuzz_small_requests,
        "exact-search": exact_search_requests,
    }[workload](workdir)


# ---------------------------------------------------------------------------
# Checks on the saved first-pass outputs, run in their own process


def _sample_witnesses(g, coloring, witnesses: list, seed: str, problems: list) -> None:
    picks = witnesses
    if len(witnesses) > WITNESS_SAMPLE:
        picks = random.Random(seed).sample(witnesses, WITNESS_SAMPLE)
    for item in picks:
        u, w = item["pair"]
        if not check_witness(g, coloring, u, w, tuple(item["path"])):
            problems.append(f"witness for pair {(u, w)} is not a rainbow path")
            return


def _check_coloring(g, coloring, budget: int, problems: list) -> None:
    if coloring.colors_used > budget:
        problems.append(f"{coloring.colors_used} colors over budget {budget}")
    cert = verify_rainbow_connected(g, coloring, want_witnesses=False)
    if not cert.connected:
        problems.append(f"coloring is not rainbow connected at {cert.failing_pair}")


def check_large_color(workdir: Path, outputs: dict, seed: int) -> dict[str, list]:
    found: dict[str, list] = {}
    for item in json.loads((workdir / "manifest.json").read_text()):
        n = item["n"]
        g = parse_edge_list((workdir / item["name"]).read_text(encoding="utf-8"))
        analyze = json.loads(outputs[f"analyze n={n}"])
        problems = found.setdefault(f"analyze n={n}", [])
        block = analyze["input"]
        if (block["n"], block["m"], block["diameter"]) != (g.n, g.m, 2):
            problems.append(f"input block {block['n']}, {block['m']}, {block['diameter']}")
        degrees = analyze["outcome"]["degrees"]
        if len(degrees) != g.n or sum(degrees) != 2 * g.m:
            problems.append("degree list does not match the graph")

        color = json.loads(outputs[f"color n={n}"])["outcome"]
        problems = found.setdefault(f"color n={n}", [])
        rows = color["coloring"]
        coloring = EdgeColoring.from_map({(u, v): c for u, v, c in rows})
        coloring.ensure_covers(g)
        if not color["verified"] or color["colors_used"] != coloring.colors_used:
            problems.append("report disagrees with its own coloring")
        _check_coloring(g, coloring, color["guarantee"], problems)
        saved = parse_coloring((workdir / f"colors-{n}.txt").read_text(encoding="utf-8"))
        if saved != coloring:
            problems.append("coloring file differs from the reported coloring")

        witness = json.loads(outputs[f"witness n={n}"])["outcome"]
        problems = found.setdefault(f"witness n={n}", [])
        pairs = {tuple(item["pair"]) for item in witness.get("witnesses", [])}
        if not witness["connected"] or len(pairs) != g.n * (g.n - 1) // 2:
            problems.append(f"{len(pairs)} witnesses for {g.n} vertices")
        elif any(not (0 <= u < w < g.n) for u, w in pairs):
            problems.append("witness pair out of range")
        _sample_witnesses(g, coloring, witness.get("witnesses", []), f"{seed}/{n}", problems)
    return found


def check_fuzz_small(workdir: Path, outputs: dict, seed: int) -> dict[str, list]:
    found: dict[str, list] = {}
    texts = split_bundle((workdir / "graphs.txt").read_text(encoding="utf-8"))
    kinds = json.loads((workdir / "manifest.json").read_text())
    for i, (text, item) in enumerate(zip(texts, kinds)):
        label = f"graph {i}"
        problems = found.setdefault(label, [])
        record = json.loads(outputs[label])
        g = parse_edge_list(text)
        coloring = EdgeColoring.from_sequence(g, record["colors"])
        if coloring.colors_used != record["colors_used"]:
            problems.append("colors_used disagrees with the coloring")
        kind = item["kind"].split()
        if kind[0] == "tight":
            k = int(kind[1])
            if (record["class"], record["guarantee"]) != ("bridged-cut-vertex", k + 2):
                problems.append(f"tight example classed {record['class']}")
        elif kind[0] == "apex" and record["class"] != "bridgeless-cut-vertex":
            problems.append(f"apex graph classed {record['class']}")
        if i % 10 == 0:
            cert = verify_rainbow_connected(g, coloring, want_witnesses=True)
            witnesses = [
                {"pair": list(pair), "path": list(p)} for pair, p in (cert.witnesses or {}).items()
            ]
            if not cert.connected:
                problems.append(f"coloring is not rainbow connected at {cert.failing_pair}")
            _sample_witnesses(g, coloring, witnesses, f"{seed}/{i}", problems)
    return found


def check_exact_search(workdir: Path, outputs: dict, seed: int) -> dict[str, list]:
    found: dict[str, list] = {}
    for item in json.loads((workdir / "manifest.json").read_text()):
        name = item["name"]
        problems = found.setdefault(name, [])
        g = parse_edge_list((workdir / f"{name}.txt").read_text(encoding="utf-8"))
        outcome = json.loads(outputs[name])["outcome"]
        rc = EXACT_INSTANCES[name][1]
        if outcome["is_exact"]:
            if outcome["exact"] != rc:
                problems.append(f"exact rc {outcome['exact']}, recorded {rc}")
        elif not outcome["lower"] <= rc <= outcome["upper"]:
            problems.append(f"bounds [{outcome['lower']}, {outcome['upper']}] miss rc {rc}")
        witness = EdgeColoring.from_map({(u, v): c for u, v, c in outcome["witness"]})
        _check_coloring(g, witness, outcome["upper"], problems)
        cert = verify_rainbow_connected(g, witness, want_witnesses=True)
        witnesses = [
            {"pair": list(pair), "path": list(p)} for pair, p in (cert.witnesses or {}).items()
        ]
        _sample_witnesses(g, witness, witnesses, f"{seed}/{name}", problems)
    return found


def check(workload: str, workdir: Path, outputs: dict, seed: int) -> dict[str, list]:
    return {
        "large-color": check_large_color,
        "fuzz-small": check_fuzz_small,
        "exact-search": check_exact_search,
    }[workload](workdir, outputs, seed)
