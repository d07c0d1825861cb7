"""The benchmark's fresh-process phases. run.py starts one process per phase.

    worker.py setup   WORKLOAD SEED DIR [--smoke]
    worker.py measure WORKLOAD SEED DIR SECONDS TRACE [--smoke]
    worker.py check   WORKLOAD SEED DIR

`setup` writes the workload's inputs. `measure` serves the requests
closed-loop for SECONDS, pass after pass over the whole request list,
gauging the host's speed between requests (refloop.py), and saves the first
pass's outputs; with TRACE 1 it alternates untraced and traced passes. `check` re-checks the saved outputs from first principles.
Each phase prints one JSON object as its last line of standard output.
rainbowconn is imported from the checkout's src/ directory and nowhere else.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import rainbowconn  # noqa: E402

if not Path(rainbowconn.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"rainbowconn imported from {rainbowconn.__file__}, not from {SRC}")

from refloop import REF_S, HostGauge  # noqa: E402
from tracing import NullTracer, Tracer, self_times  # noqa: E402
from workloads import check, generate, input_digest, requests  # noqa: E402

# Spans whose summed self time per pass is reported as `<name>_s`.
SPAN_METRICS = (
    "fileio.parse",
    "fileio.format",
    "graph.diameter",
    "graph.lowlink",
    "graph.two_connected",
    "colorer.classify",
    "colorer.color",
    "verify.verdict",
    "verify.witness",
    "report.render",
    "exact.lower_bound",
    "exact.search",
)
# Layers whose summed self time per pass is reported as `<layer>.self_s`.
# The cli layer's self time is the request span's own time: reading files
# and building report dictionaries around the calls into the other layers.
LAYERS = ("fileio", "graph", "colorer", "verify", "exact", "report", "cli")
MAX_REPORTED_FAILURES = 20


def _emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def cmd_setup(workload: str, seed: int, workdir: Path, smoke: bool) -> None:
    generate(workload, seed, workdir, smoke, NullTracer())
    _emit({"digest": input_digest(workdir)})


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


class Ledger:
    """Failed request executions, with the first few reasons."""

    def __init__(self) -> None:
        self.failed = 0
        self.reasons: list[str] = []

    def fail(self, label: str, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < MAX_REPORTED_FAILURES:
            self.reasons.append(f"{label}: {reason}")


def _serve_pass(reqs, tracer, ledger: Ledger, first: dict, outdir: Path, gauge: HostGauge):
    """Serve every request once; return (samples, root span ids, counts).

    A sample is (kind, label, seconds, exit code, seconds at reference speed).
    """
    timed: list[tuple[str, str, float, int, int]] = []
    roots: list[int] = []
    counts: dict = {}
    for index, req in enumerate(reqs):
        gc.collect()
        mark = gauge.mark()
        try:
            if tracer is None:
                t0 = time.perf_counter()
                raw = req.serve(None)
                dt = time.perf_counter() - t0
            else:
                with tracer.span(f"cli.{req.kind}") as root:
                    raw = req.serve(tracer)
                _, _, _, start, end = tracer.spans[-1]
                dt = end - start
                roots.append(root)
            out = req.settle(raw)
        except Exception:
            ledger.fail(req.label, traceback.format_exc(limit=4).strip().splitlines()[-1])
            continue
        finally:
            gauge.tick()
        timed.append((req.kind, req.label, dt, out.code, mark))
        for key, value in out.counts.items():
            counts[key] = counts.get(key, 0) + value
        if req.label not in first:
            first[req.label] = out.digest
            (outdir / f"{index}.txt").write_text(out.text, encoding="utf-8")
            if out.problems:
                ledger.fail(req.label, "; ".join(out.problems))
        elif out.problems:
            ledger.fail(req.label, "; ".join(out.problems))
        elif first[req.label] != out.digest:
            ledger.fail(req.label, "output differs from the first pass")
    # Close the last span of reference samples so every request has one after it.
    gauge.sample()
    samples = [(*t[:4], t[2] * gauge.scale(t[4])) for t in timed]
    return samples, roots, counts


def _totals(passes: list, field: int) -> list[float]:
    return [sum(s[field] for s in samples) for samples in passes]


def _untraced_metrics(passes: list) -> tuple[dict, dict]:
    p90 = [_p90([s[4] for s in samples]) for samples in passes]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "pass_norm_s": statistics.median(_totals(passes, 4)),
        "peak_rss_mb": peak_kib / 1024,
    }
    # Per-kind and per-request medians over passes, for the printed summary.
    by_kind: dict[str, list[float]] = {}
    by_label: dict[str, list[float]] = {}
    for samples in passes:
        kind_totals: dict[str, float] = {}
        for kind, label, _, _, norm in samples:
            kind_totals[kind] = kind_totals.get(kind, 0.0) + norm
            by_label.setdefault(label, []).append(norm)
        for kind, total in kind_totals.items():
            by_kind.setdefault(kind, []).append(total)
    summary = {
        "passes": len(passes),
        "pass_s": statistics.median(_totals(passes, 2)),
        "requests_per_pass": len(passes[0]),
        "request_p90_ms": statistics.median(p90) * 1000,
        "kind_s": {k: statistics.median(v) for k, v in by_kind.items()},
        "request_s": {k: statistics.median(v) for k, v in by_label.items()},
        "budget_exits": sum(1 for s in passes[0] if s[3] == 3),
    }
    return metrics, summary


def _traced_metrics(tracer: Tracer, traced: list, untraced: list, setup_root, setup_counts) -> tuple[dict, bool]:
    per_pass = []
    for samples, roots, counts in traced:
        # Span times are scaled to the reference speed by their pass's factor.
        scale = sum(s[4] for s in samples) / sum(s[2] for s in samples)
        own = {k: v * scale for k, v in self_times(tracer.spans, set(roots)).items()}
        row = {f"{name}_s": own.get(name, 0.0) for name in SPAN_METRICS}
        for layer in LAYERS:
            row[f"{layer}.self_s"] = sum((v for k, v in own.items() if k.split(".")[0] == layer), 0.0)
        per_pass.append((row, counts))
    metrics = {
        key: statistics.median(row[key] for row, _ in per_pass) for key in per_pass[0][0]
    }
    counts = per_pass[0][1]
    steady = all(c == counts for _, c in per_pass)
    calls = counts.get("color_calls", 0)
    metrics["colorer.attempts"] = counts.get("attempts", 0)
    metrics["colorer.first_try_ratio"] = counts.get("first_try", 0) / calls if calls else 0.0
    search_s = metrics["exact.search_s"]
    metrics["exact.candidates"] = counts.get("candidates", 0)
    metrics["exact.candidates_per_s"] = metrics["exact.candidates"] / search_s if search_s else 0.0
    metrics["exact.unresolved"] = counts.get("unresolved", 0)
    setup_own = self_times(tracer.spans, {setup_root})
    metrics["generators.sample_s"] = setup_own.get("generators.sample", 0.0)
    metrics["generators.tries"] = setup_counts["tries"]
    traced_total = statistics.median(_totals([samples for samples, _, _ in traced], 4))
    metrics["trace.overhead_s"] = traced_total - statistics.median(_totals(untraced, 4))
    return metrics, steady


def cmd_measure(workload: str, seed: int, workdir: Path, seconds: float, trace: bool, smoke: bool) -> None:
    tracer = Tracer() if trace else None
    setup_root = setup_counts = None
    if tracer is not None:
        # Set-up runs again in this process so its generator calls get spans;
        # it rewrites the same files.
        with tracer.span("bench.setup") as setup_root:
            setup_counts = generate(workload, seed, workdir, smoke, tracer)
    reqs = requests(workload, workdir)
    outdir = workdir / "out"
    outdir.mkdir(exist_ok=True)
    (outdir / "labels.json").write_text(json.dumps([r.label for r in reqs]), encoding="utf-8")
    ledger = Ledger()
    first: dict[str, str] = {}
    untraced: list = []
    traced: list = []
    attempted = 0
    gauge = HostGauge()
    gc.collect()
    gc.freeze()
    start = time.perf_counter()
    while True:
        use_trace = tracer is not None and len(untraced) > len(traced)
        pass_start = time.perf_counter()
        samples, roots, counts = _serve_pass(
            reqs, tracer if use_trace else None, ledger, first, outdir, gauge
        )
        attempted += len(reqs)
        if not samples:
            break
        if use_trace:
            traced.append((samples, roots, counts))
        else:
            untraced.append(samples)
        # Start another pass only if one as long as the last one still ends
        # within the run's time.
        now = time.perf_counter()
        if now + (now - pass_start) - start > seconds and (tracer is None or traced):
            break
    result = {"attempted": attempted, "failed": ledger.failed, "failures": ledger.reasons}
    if not untraced or (tracer is not None and not traced):
        result["failures"].append("no pass completed")
        result["failed"] = max(result["failed"], 1)
        _emit(result)
        return
    metrics, summary = _untraced_metrics(untraced)
    summary["host_slowdown"] = statistics.median(gauge.samples) / REF_S
    result["summary"] = summary
    if tracer is None:
        result["metrics"] = metrics
    else:
        result["metrics"], steady = _traced_metrics(
            tracer, traced, untraced, setup_root, setup_counts
        )
        if not steady:
            ledger.fail("trace", "layer counts differ between traced passes")
            result["failed"] = ledger.failed
            result["failures"] = ledger.reasons
        trace_path = ROOT / ".bench_out" / f"trace-{workload}-{seed}.json"
        tracer.write(trace_path)
        result["trace_file"] = str(trace_path.relative_to(ROOT))
    _emit(result)


def cmd_check(workload: str, seed: int, workdir: Path) -> None:
    outdir = workdir / "out"
    labels = json.loads((outdir / "labels.json").read_text(encoding="utf-8"))
    outputs = {
        label: (outdir / f"{i}.txt").read_text(encoding="utf-8")
        for i, label in enumerate(labels)
        if (outdir / f"{i}.txt").exists()
    }
    try:
        found = check(workload, workdir, outputs, seed)
    except Exception:
        reason = traceback.format_exc(limit=4).strip().splitlines()[-1]
        _emit({"checked": len(labels), "failed": len(labels), "failures": [f"check crashed: {reason}"]})
        return
    bad = [f"{label}: {'; '.join(p)}" for label, p in found.items() if p]
    _emit({"checked": len(found), "failed": len(bad), "failures": bad[:MAX_REPORTED_FAILURES]})


def main(argv: list[str]) -> None:
    smoke = "--smoke" in argv
    args = [a for a in argv if a != "--smoke"]
    phase, workload, seed, workdir = args[0], args[1], int(args[2]), Path(args[3])
    if phase == "setup":
        cmd_setup(workload, seed, workdir, smoke)
    elif phase == "measure":
        cmd_measure(workload, seed, workdir, float(args[4]), args[5] == "1", smoke)
    elif phase == "check":
        cmd_check(workload, seed, workdir)
    else:
        sys.exit(f"unknown phase {phase!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
