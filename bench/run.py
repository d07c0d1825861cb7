"""rainbowconn benchmark: one workload per invocation.

    python3 bench/run.py --workload large-color --seed 1 --seconds 36 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's src/ directory. The run sets up the workload's inputs three to
seven times, each in a fresh interpreter (their median wall time is
`setup_s`), then serves the requests closed-loop for --seconds in another
fresh interpreter, then re-checks the saved outputs in a third. See README.md in
this directory for the workloads and metrics.

Human-readable lines come first on standard output; the last line is one
JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones from a traced run (spans are written under .bench_out/). --smoke runs
every workload at toy size. The exit code is non-zero, with no result line,
when the program cannot be run or a phase crashes or overruns.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOADS = ("large-color", "fuzz-small", "exact-search")
# Set-up runs at least SETUP_MIN times and until SETUP_BUDGET_S seconds have
# gone to it, at most SETUP_MAX times; setup_s is the median.
SETUP_MIN = 3
SETUP_MAX = 7
SETUP_BUDGET_S = 1.5
# Every phase must finish inside this many seconds from the start of the run.
RUN_LIMIT_S = 170


class PhaseError(RuntimeError):
    pass


def unit_of(name: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_mb", "MB"), ("_s", "s"), ("_ratio", "ratio"), ("_rate", "ratio"), ("_slowdown", "x")):
        if name.endswith(suffix):
            return unit
    return "count"


def _phase(args: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise PhaseError(f"no time left for phase {args[0]}")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            stdout=subprocess.PIPE,
            text=True,
            timeout=remaining,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise PhaseError(f"phase {args[0]} overran the {RUN_LIMIT_S} s limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PhaseError(f"phase {args[0]} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def _issue_metrics(workload: str, metrics: dict, summary: dict) -> dict:
    """The per-workload names the benchmark's README documents."""
    kinds = summary["kind_s"]
    if workload == "large-color":
        return {
            "analyze_cmd_s": kinds["analyze"],
            "color_cmd_s": kinds["color"],
            "witness_cmd_s": kinds["witness"],
        }
    if workload == "fuzz-small":
        return {
            "validate_graphs_per_s": summary["requests_per_pass"] / metrics["pass_norm_s"],
            "validate_p90_ms": summary["request_p90_ms"],
        }
    return {"exact_s": metrics["pass_norm_s"], "exact_unresolved": summary["budget_exits"]}


def run(args) -> int:
    if not (ROOT / "src" / "rainbowconn" / "__init__.py").is_file():
        print(f"error: no rainbowconn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    smoke = ["--smoke"] if args.smoke else []
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    common = [args.workload, str(args.seed), str(workdir)]
    try:
        setup_times = []
        digests = []
        while len(setup_times) < SETUP_MIN or (
            len(setup_times) < SETUP_MAX and sum(setup_times) < SETUP_BUDGET_S
        ):
            t0 = time.perf_counter()
            digests.append(_phase(["setup", *common, *smoke], deadline)["digest"])
            setup_times.append(time.perf_counter() - t0)
        measured = _phase(
            ["measure", *common, str(args.seconds), str(args.trace), *smoke], deadline
        )
        checked = _phase(["check", *common], deadline)
    except PhaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    setup_mismatch = sum(d != digests[0] for d in digests)
    attempted = measured["attempted"] + len(setup_times)
    failed = min(attempted, measured["failed"] + checked["failed"] + setup_mismatch)
    failures = measured["failures"] + checked["failures"]
    if setup_mismatch:
        failures.append(f"{setup_mismatch} set-ups wrote different inputs")
    if "metrics" not in measured:
        print(f"error: no pass completed: {failures}", file=sys.stderr)
        return 1

    summary = measured["summary"]
    setup_s = statistics.median(setup_times)
    print(
        f"{args.workload} seed {args.seed}: {summary['passes']} untraced passes of "
        f"{summary['requests_per_pass']} requests; {attempted} operations, {failed} failed"
    )
    for reason in failures:
        print(f"  failure: {reason}")
    if args.trace:
        metrics = measured["metrics"]
        print(f"  spans written to {measured['trace_file']}")
    else:
        metrics = {"setup_s": setup_s, **measured["metrics"]}
        shown = {
            **metrics,
            **_issue_metrics(args.workload, metrics, summary),
            "error_rate": failed / attempted,
            "pass_s": summary["pass_s"],
            "host_slowdown": summary["host_slowdown"],
        }
        for name, value in shown.items():
            print(f"  {name:<24} {value:12.4f} {unit_of(name)}")
        if len(summary["request_s"]) <= 16:
            for label, value in summary["request_s"].items():
                print(f"  request {label:<24} {value:9.4f} s (median over passes)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit_of(name)} for name, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="toy-size inputs")
    return run(parser.parse_args())


if __name__ == "__main__":
    sys.exit(main())
