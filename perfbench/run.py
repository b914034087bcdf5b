"""Benchmark of peps-forge: one command, three workloads.

    python3 perfbench/run.py --workload sweep-grid2x2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

A single workload runs in this process and prints its metrics, then, as the
last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
wraps the library's functions in spans, reports the per-layer metrics and
writes the spans to ``perfbench/out/``. Metric names and units are the ones
``BENCHMARK.json`` lists. ``--workload all`` runs every workload in a fresh
process and ends with one JSON object keyed by workload.

Every run also writes ``perfbench/out/<workload>-seed<n>-trace<t>.json``:
the result object plus the run's calibration kernel and slowdown, so that
the raw timing of a scaled metric is its value times the slowdown.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import bootstrap

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = tuple(w["name"] for w in SPEC["workloads"])


def units(kind: str) -> dict[str, str]:
    """Metric name -> unit, for ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def slowdown(res, kernel) -> float:
    """How much slower than nominal the machine ran during this run."""
    return statistics.median(res.calibration) / kernel.nominal_s


def end_to_end(res, tail_percentile: int, slow: float) -> dict[str, float]:
    """End-to-end metrics, every timing divided by the run's slowdown."""
    ops = np.asarray(res.ops) / slow
    return {
        "setup_s": statistics.median(res.setup) / slow,
        "ops_per_s": len(ops) / ops.sum(),
        "op_p50_ms": float(np.median(ops)) * 1e3,
        "op_tail_ms": float(np.percentile(ops, tail_percentile)) * 1e3,
        "command_s": statistics.median(res.command) / slow,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run_one(args) -> dict:
    bootstrap.use_checkout_library()
    import layers
    import tracing
    import workloads

    size = workloads.SIZES[args.workload]
    tracer = tracing.Tracer() if args.trace else tracing.NoTracer()
    if args.trace:
        layers.instrument(tracer)
    try:
        res = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tracer, size)
    finally:
        if args.trace:
            tracer.restore()
    kernel = size["calibration"]
    slow = slowdown(res, kernel)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    if args.trace:
        values = layers.layer_metrics(tracer, res, slow)
        tracer.write(out / f"{args.workload}-seed{args.seed}.trace.jsonl.gz")
    else:
        values = end_to_end(res, workloads.TAIL_PERCENTILE[args.workload], slow)
    result = summary(res, values, units("per_layer" if args.trace else "end_to_end"))
    for problem in res.problems:
        print("INCORRECT:", problem, file=sys.stderr)
    print(f"{args.workload}: attempted {res.attempted}, failed {res.failed}, "
          f"slowdown {slow:.3f} ({kernel.name} kernel)")
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}")
    record = {**result, "calibration": {"kernel": kernel.name, "slowdown": slow}}
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return result


def summary(res, values: dict[str, float], metric_units: dict[str, str]) -> dict:
    """The result object; any failed operation or run-wide check makes it incorrect."""
    return {
        "correct": not res.problems and res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": values[name], "unit": u} for name, u in metric_units.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, so peak RSS is per workload."""
    results = {}
    for name in NAMES:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
