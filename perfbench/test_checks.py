"""Tiny runs of every workload, and proof that every output check bites.

    python3 -m pytest perfbench/test_checks.py

Each workload runs at a tiny size and must pass all its checks; then each
check is fed a deliberately wrong value (a perturbed gap, fidelity,
overlap or measurement count) and must report a problem.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import bootstrap  # noqa: E402

bootstrap.use_checkout_library()

import checks  # noqa: E402
import layers  # noqa: E402
import refgaps  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from peps_forge import dynamics, harness  # noqa: E402

TINY = {
    "sweep-grid2x2": {"round_trials": 300, "command_trials": 40},
    "prepare-ring5": {"length": 3, "setup_repeats": 1},
    "lemma1-ring6": {"length": 4, "setup_repeats": 1, "round_instances": 3, "min_rounds": 2},
}


@pytest.fixture(scope="module")
def tiny_sizes(tmp_path_factory):
    sizes = {name: {**workloads.SIZES[name], **tiny} for name, tiny in TINY.items()}
    path = tmp_path_factory.mktemp("ref") / "ref_gaps.json"
    size = sizes["prepare-ring5"]
    path.write_text(json.dumps(refgaps.reference_pool(size["length"], size["kappa_max"], [0, 1])))
    size["reference"] = path
    return sizes


@pytest.fixture(scope="module")
def grid():
    cfg, _ = harness.load_fixture("grid2x2")
    graph, tensors = harness.build_instance(cfg)
    prepared = dynamics.PreparedInstance(graph, tensors)
    oracle = checks.Oracle.of(graph, tensors)
    return cfg, prepared, oracle


@pytest.fixture(scope="module")
def ring3():
    doc = workloads.ring_document(3, 2.0, 0)
    graph, tensors = harness.build_instance(harness.parse_config(doc))
    prepared = dynamics.PreparedInstance(graph, tensors)
    reference = refgaps.reference_pool(3, 2.0, [0])["instances"]["0"]
    return prepared, checks.Oracle.of(graph, tensors), reference


@pytest.mark.parametrize("name", run.NAMES)
@pytest.mark.parametrize("traced", [False, True])
def test_tiny_workload_passes_every_check(name, traced, tiny_sizes):
    tracer = tracing.Tracer() if traced else tracing.NoTracer()
    if traced:
        layers.instrument(tracer)
    try:
        res = workloads.WORKLOADS[name](3, 0.0, tracer, tiny_sizes[name])
    finally:
        if traced:
            tracer.restore()
    assert res.failed == 0 and res.problems == []
    assert res.attempted >= 2 and res.ops and res.command and res.setup and res.calibration
    if traced:
        metrics = layers.layer_metrics(tracer, res, 1.0)
        assert list(metrics) == list(run.units("per_layer"))
        assert all(np.isfinite(v) for v in metrics.values())
    else:
        metrics = run.end_to_end(res, workloads.TAIL_PERCENTILE[name], 1.0)
        assert list(metrics) == list(run.units("end_to_end"))
        assert all(v > 0 for v in metrics.values())
    assert "traced" not in dynamics.run_algorithm.__qualname__


def test_trace_counts_the_prefix_contractions(tiny_sizes):
    tracer = tracing.Tracer()
    layers.instrument(tracer)
    try:
        res = workloads.lemma1_ring6(3, 0.0, tracer, tiny_sizes["lemma1-ring6"])
    finally:
        tracer.restore()
    metrics = layers.layer_metrics(tracer, res, 1.0)
    n = tiny_sizes["lemma1-ring6"]["length"]
    assert metrics["network.contract_partial_calls"] == n + 1
    assert metrics["network.register_applies"] == n * (n + 1) / 2


def test_a_failed_check_makes_the_run_incorrect(tiny_sizes, monkeypatch, tmp_path):
    check = checks.check_lemma1
    calls = []

    def wrong_once(report, oracle):
        calls.append(report)
        return ["deliberately wrong"] if len(calls) == 2 else check(report, oracle)

    monkeypatch.setitem(workloads.SIZES, "lemma1-ring6", tiny_sizes["lemma1-ring6"])
    monkeypatch.setattr(checks, "check_lemma1", wrong_once)
    monkeypatch.setattr(run, "HERE", tmp_path)
    args = run.argparse.Namespace(workload="lemma1-ring6", seed=3, seconds=0.0, trace=0)
    result = run.run_one(args)
    assert result["failed"] == 1 and result["attempted"] == len(calls)
    assert result["correct"] is False
    record = json.loads((tmp_path / "out" / "lemma1-ring6-seed3-trace0.json").read_text())
    assert record["failed"] == 1 and record["calibration"]["slowdown"] > 0


def test_run_refuses_a_directory_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lemma1-ring6", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# ---------------------------------------------------------------------------
# each check rejects a wrong value
# ---------------------------------------------------------------------------


def _successful_report(cfg, prepared):
    for seed in range(100):
        report = dynamics.run_algorithm(prepared, cfg.eps, seed)
        if report.success and any(r.alternations for r in report.vertices):
            return report
    raise AssertionError("no successful trial with a repair among 100 seeds")


def test_reference_state_check(grid):
    _, prepared, oracle = grid
    assert checks.check_reference_state(prepared.reference_state, oracle) == []
    wrong = prepared.reference_state.copy()
    wrong[[0, 1]] = wrong[[1, 0]]
    assert checks.check_reference_state(wrong, oracle)


def test_trial_check(grid):
    cfg, prepared, oracle = grid
    bound = oracle.measurement_bound(cfg.eps)
    cap = checks.alternation_cap(oracle.kappa_max, oracle.n, cfg.eps)
    report = _successful_report(cfg, prepared)
    assert checks.check_trial(report, oracle, bound, cap) == []
    replace = dataclasses.replace
    assert checks.check_trial(replace(report, fidelity=1 - 1e-7), oracle, bound, cap)
    assert checks.check_trial(replace(report, alternation_cap=cap + 1), oracle, bound, cap)
    assert checks.check_trial(report, oracle, report.total_measurements - 1, cap)
    assert checks.check_trial(
        replace(report, total_measurements=report.total_measurements + 2), oracle, bound, cap
    )
    vertices = list(report.vertices)
    vertices[1] = replace(vertices[1], first_shot_probability=vertices[1].first_shot_probability + 1e-8)
    assert checks.check_trial(replace(report, vertices=tuple(vertices)), oracle, bound, cap)


def test_chain_count_check():
    p, cap, trials = 0.9, 40, 20000
    rng = np.random.default_rng(5)
    observed = rng.multinomial(trials, checks.chain_distribution(p, cap))
    assert checks.check_chain_counts([observed], [p], cap) == []
    assert checks.check_chain_counts([observed], [p - 0.03], cap)
    shifted = observed.copy()
    shifted[0] -= 200
    shifted[1] += 200
    assert checks.check_chain_counts([shifted], [p], cap)


def test_chain_closed_form_matches_the_termination_law():
    p, m = 0.7, 6
    probs = checks.chain_distribution(p, m)
    assert probs.sum() == pytest.approx(1.0, abs=1e-14)
    assert probs[:-1].sum() == pytest.approx(1 - (1 - p) * (p**2 + (1 - p) ** 2) ** m, abs=1e-14)


def test_success_rate_check():
    assert checks.check_success_rate(880, 1000, 0.1) == []
    assert checks.check_success_rate(850, 1000, 0.1)


def test_sweep_row_check(grid):
    cfg, prepared, oracle = grid
    bound = oracle.measurement_bound(cfg.eps)
    rows = harness.sweep(cfg, trials=20, base_seed=100, jobs=1).rows
    reports = {s: dynamics.run_algorithm(prepared, cfg.eps, s) for s in range(100, 120)}
    assert checks.check_sweep_rows(rows, reports, oracle, bound) == []
    wrong = list(rows)
    wrong[3] = dataclasses.replace(wrong[3], total_measurements=wrong[3].total_measurements + 2)
    assert checks.check_sweep_rows(wrong, reports, oracle, bound)
    wrong = list(rows)
    wrong[4] = dataclasses.replace(wrong[4], fidelity=0.5)
    assert checks.check_sweep_rows(wrong, reports, oracle, bound)
    assert checks.check_sweep_rows(rows[1:], reports, oracle, bound)


def _with_analysis(prepared, t, **changes):
    wrong = copy.copy(prepared)
    wrong.analyses = list(prepared.analyses)
    wrong.analyses[t] = dataclasses.replace(prepared.analyses[t], **changes)
    wrong.gaps = [a.gap for a in wrong.analyses]
    return wrong


def test_prepared_check(ring3):
    prepared, oracle, reference = ring3
    assert checks.check_prepared(prepared, oracle, reference) == []
    gap = prepared.analyses[2].gap
    assert checks.check_prepared(_with_analysis(prepared, 2, gap=gap + 1e-7), oracle, reference)
    assert checks.check_prepared(_with_analysis(prepared, 0, gap=0.999), oracle, reference)
    assert checks.check_prepared(_with_analysis(prepared, 1, ground_degeneracy=2), oracle, reference)
    other = prepared.analyses[2].ground_state
    assert checks.check_prepared(_with_analysis(prepared, 1, ground_state=other), oracle, reference)
    wrong = copy.copy(prepared)
    wrong.overlaps = [p - 1e-9 for p in prepared.overlaps]
    assert checks.check_prepared(wrong, oracle, reference)
    other_instance = dict(reference, kappa=[k * 1.01 for k in reference["kappa"]])
    assert checks.check_prepared(prepared, oracle, other_instance)


def test_reference_gaps_agree_with_the_library(ring3):
    prepared, _, reference = ring3
    assert np.allclose(reference["gaps"], prepared.gaps, atol=checks.GAP_TOL, rtol=0)


def test_lemma1_check():
    doc = workloads.ring_document(4, 2.0, 11)
    graph, tensors = harness.build_instance(harness.parse_config(doc))
    report = dynamics.verify_lemma1(graph, tensors)
    oracle = checks.Oracle.of(graph, tensors)
    assert checks.check_lemma1(report, oracle) == []
    replace = dataclasses.replace
    assert checks.check_lemma1(replace(report, min_overlap_margin=-1e-9), oracle)
    assert checks.check_lemma1(replace(report, min_z_margin=-1e-9), oracle)
    for field, delta in (("z_ratio", 1e-8), ("overlap", 1e-9), ("overlap_margin", 1e-9)):
        steps = list(report.steps)
        steps[2] = replace(steps[2], **{field: getattr(steps[2], field) + delta})
        assert checks.check_lemma1(replace(report, steps=tuple(steps)), oracle), field
