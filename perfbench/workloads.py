"""The three benchmark workloads.

Each workload builds its inputs from ``seed`` and runs whole rounds of its
operations until ``seconds`` of wall time have passed. Its one-off set-up is
repeated ``setup_repeats`` times in every round, so that ``setup_s``, the
median set-up time, samples the same stretch of the run as the operations.

Besides single operations, each workload times the batch that its CLI
command runs (``command_s``): a ``harness.sweep`` call in every
sweep-grid2x2 round; config parsing, ``build_instance`` and
``PreparedInstance`` for gap-scan; a round of 64 build-and-verify instances
for verify-lemma1.

Between rounds each workload times its calibration kernel (see
:mod:`calibration`).

Every operation's outputs are checked with :mod:`checks` outside the timed
region; an operation that raises or fails a check is counted as failed.
A failed operation, or a statistic over the whole run (success rate,
measurement-count law) that fails, makes the run incorrect.

The library is called through its module attributes
(``dynamics.run_algorithm``, ``harness.build_instance``, ...) so that a
traced run sees every call.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
from peps_forge import dynamics, harness

import calibration
import checks

REFERENCE_PATH = Path(__file__).resolve().parent / "ref_gaps.json"

#: default sizes; ``setup_repeats`` counts set-ups per round; the tests shrink them
SIZES = {
    "sweep-grid2x2": {
        "fixture": "grid2x2",
        "calibration": calibration.PROJECTIONS_AND_EIG,
        "setup_repeats": 1,
        "round_trials": 1000,
        "command_trials": 250,
    },
    "prepare-ring5": {
        "length": 5,
        "kappa_max": 2.0,
        "calibration": calibration.DENSE_EIG,
        "setup_repeats": 9,
        "min_ops": 2,
        "reference": REFERENCE_PATH,
    },
    "lemma1-ring6": {
        "length": 6,
        "kappa_max": 2.0,
        "calibration": calibration.SMALL_DENSE,
        "setup_repeats": 3,
        "round_instances": 64,
        "min_rounds": 16,
    },
}

#: which percentile ``op_tail_ms`` reports. sweep-grid2x2: p99, the highest
#: with at least ten samples beyond it; its tail is the repair loop.
#: lemma1-ring6: p95, because every instance does the same work, so the tail
#: is machine jitter and its p99 spread by up to 0.21 between runs.
#: prepare-ring5 runs under 40 operations, too few for any tail: the median.
TAIL_PERCENTILE = {"sweep-grid2x2": 99, "prepare-ring5": 50, "lemma1-ring6": 95}


@dataclass
class Result:
    """Raw timings and counts of one run."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    ops: list[float] = field(default_factory=list)
    command: list[float] = field(default_factory=list)
    calibration: list[float] = field(default_factory=list)
    dense_bytes: int = 0
    vertices_per_command: int = 0

    def fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        print(f"FAILED {what}:", *problems[:5], sep="\n  ", file=sys.stderr)


def ring_document(length: int, kappa_max: float, tensor_seed: int) -> dict:
    """Config document of a random ring instance with bond dimension 2."""
    return {
        "graph": {"topology": "ring", "length": length},
        "bond_dim": 2,
        "tensors": {"source": "random", "kappa_max": kappa_max, "seed": tensor_seed},
        "seed": 0,
    }


def dense_bytes(prepared) -> int:
    """Bytes of the N x N arrays a ``PreparedInstance`` keeps alive."""
    total = 0
    for h in prepared.hamiltonians:
        cached = vars(h)
        if "global_matrix" in cached:
            total += cached["global_matrix"].nbytes
        if "spectral" in cached:
            total += cached["spectral"].eigenvectors.nbytes
    return total


def timed_setup(res: Result, tracer, setup):
    """Run ``setup()`` as one timed set-up and return its result."""
    with tracer.phase_span("bench.setup"):
        t0 = perf_counter()
        out = setup()
        res.setup.append(perf_counter() - t0)
    return out


def sweep_grid2x2(seed: int, seconds: float, tracer, size: dict) -> Result:
    """Bounded-mode trials on the pinned grid2x2 fixture, one sweep batch per round."""
    res = Result()

    def setup():
        cfg, _ = harness.load_fixture(size["fixture"])
        graph, tensors = harness.build_instance(cfg)
        prepared = dynamics.PreparedInstance(graph, tensors, c=cfg.c, zero_tol=cfg.zero_tol)
        return cfg, graph, tensors, prepared

    cfg, graph, tensors, prepared = timed_setup(res, tracer, setup)
    res.dense_bytes = dense_bytes(prepared)
    oracle = checks.Oracle.of(graph, tensors)
    res.problems += checks.check_reference_state(prepared.reference_state, oracle)
    bound = oracle.measurement_bound(cfg.eps)
    cap = checks.alternation_cap(oracle.kappa_max, oracle.n, cfg.eps)
    histograms = [np.zeros(cap + 2, dtype=np.int64) for _ in range(oracle.n)]
    base = seed * 10**6
    first_round: dict = {}
    successes = 0
    trial_seed = base
    deadline = perf_counter() + seconds
    while True:
        for _ in range(size["round_trials"]):
            res.attempted += 1
            try:
                with tracer.phase_span("bench.op"):
                    t0 = perf_counter()
                    report = dynamics.run_algorithm(prepared, cfg.eps, trial_seed)
                    dt = perf_counter() - t0
                problems = checks.check_trial(report, oracle, bound, cap)
            except Exception:
                problems = [traceback.format_exc()]
            if problems:
                res.fail(f"trial {trial_seed}", problems)
            else:
                res.ops.append(dt)
                successes += report.success
                checks.count_vertex_measurements(report, histograms)
                if len(first_round) < size["command_trials"]:
                    first_round[trial_seed] = report
            trial_seed += 1
        # the sweep covers the first seeds of the first round, so its rows
        # can be compared with those trials' reports
        res.attempted += 1
        try:
            with tracer.phase_span("bench.command"):
                t0 = perf_counter()
                out = harness.sweep(cfg, trials=size["command_trials"], base_seed=base, jobs=1)
                dt = perf_counter() - t0
            problems = checks.check_sweep_rows(out.rows, first_round, oracle, bound)
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            res.fail("harness.sweep", problems)
        else:
            res.command.append(dt)
        for _ in range(size["setup_repeats"]):
            timed_setup(res, tracer, setup)
        res.calibration.append(size["calibration"].time())
        if perf_counter() >= deadline:
            break
    res.problems += checks.check_success_rate(successes, len(res.ops), cfg.eps)
    res.problems += checks.check_chain_counts(histograms, oracle.overlaps(), cap)
    res.vertices_per_command = sum(len(r.vertices) for r in first_round.values())
    return res


def prepare_ring5(seed: int, seconds: float, tracer, size: dict) -> Result:
    """``PreparedInstance`` on random rings, one reference tensor seed each."""
    res = Result()
    with open(size["reference"], encoding="utf-8") as f:
        reference = json.load(f)
    spec = reference["config"]
    if (spec["length"], spec["kappa_max"]) != (size["length"], size["kappa_max"]):
        raise SystemExit("perfbench: ref_gaps.json was made for another ring; rerun refgaps.py")
    pool = sorted(int(k) for k in reference["instances"])
    tensor_seeds = [int(s) for s in np.random.default_rng(seed).permutation(pool)]

    def build(tensor_seed: int):
        cfg = harness.parse_config(ring_document(size["length"], size["kappa_max"], tensor_seed))
        return cfg, *harness.build_instance(cfg)

    deadline = perf_counter() + seconds
    for i, tensor_seed in enumerate(tensor_seeds):
        if i >= size["min_ops"] and perf_counter() >= deadline:
            break
        for _ in range(size["setup_repeats"]):
            timed_setup(res, tracer, lambda: build(tensor_seed))
        res.calibration += [size["calibration"].time() for _ in range(3)]
        res.attempted += 1
        try:
            with tracer.phase_span("bench.op"):
                t0 = perf_counter()
                cfg, graph, tensors = build(tensor_seed)
                t1 = perf_counter()
                prepared = dynamics.PreparedInstance(
                    graph, tensors, c=cfg.c, zero_tol=cfg.zero_tol
                )
                t2 = perf_counter()
            res.dense_bytes = dense_bytes(prepared)
            oracle = checks.Oracle.of(graph, tensors)
            problems = checks.check_prepared(
                prepared, oracle, reference["instances"][str(tensor_seed)]
            )
            del prepared  # the next instance must not share the peak with this one
        except Exception:
            problems = [traceback.format_exc()]
        if problems:
            res.fail(f"tensor seed {tensor_seed}", problems)
        else:
            res.ops.append(t2 - t1)
            res.command.append(t2 - t0)
    res.calibration += [size["calibration"].time() for _ in range(3)]
    return res


def lemma1_ring6(seed: int, seconds: float, tracer, size: dict) -> Result:
    """``build_instance`` + ``verify_lemma1`` on random rings, in rounds."""
    res = Result()
    base = seed * 10**6

    def setup():
        cfg = harness.parse_config(ring_document(size["length"], size["kappa_max"], base))
        harness.build_instance(cfg)
        return cfg

    template = timed_setup(res, tracer, setup)
    tensor_seed = base
    rounds = 0
    deadline = perf_counter() + seconds
    while rounds < size["min_rounds"] or perf_counter() < deadline:
        round_time = 0.0
        round_ok = True
        for _ in range(size["round_instances"]):
            res.attempted += 1
            try:
                with tracer.phase_span("bench.op"):
                    t0 = perf_counter()
                    cfg = dataclasses.replace(
                        template, tensors=dataclasses.replace(template.tensors, seed=tensor_seed)
                    )
                    graph, tensors = harness.build_instance(cfg)
                    report = dynamics.verify_lemma1(graph, tensors)
                    dt = perf_counter() - t0
                problems = checks.check_lemma1(report, checks.Oracle.of(graph, tensors))
            except Exception:
                problems = [traceback.format_exc()]
            if problems:
                res.fail(f"tensor seed {tensor_seed}", problems)
                round_ok = False
            else:
                res.ops.append(dt)
                round_time += dt
            tensor_seed += 1
        if round_ok:
            res.command.append(round_time)
        for _ in range(size["setup_repeats"]):
            timed_setup(res, tracer, setup)
        res.calibration.append(size["calibration"].time())
        rounds += 1
    return res


WORKLOADS = {
    "sweep-grid2x2": sweep_grid2x2,
    "prepare-ring5": prepare_ring5,
    "lemma1-ring6": lemma1_ring6,
}
