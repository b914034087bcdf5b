"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

The suite pins every tolerance stated in the contract: overlap and norm
bounds with 1e-10 slack, statistical checks at 4 binomial sigmas (3 for the
success-rate bound), fidelities at 1e-8/1e-9, the identity-map parent-term
comparison at 1e-12, and per-criterion wall-clock limits.
"""

from __future__ import annotations

import itertools
import json
import math
import time

import numpy as np

from _helpers import CHAIN2, CHAIN3, CHAIN4, RING4, random_instance
from peps_forge.dynamics import (
    markov_trials,
    p_term,
    run_algorithm,
    verify_failure_tail,
    verify_lemma1,
)
from peps_forge.hamiltonian import edge_term_on_registers, parent_term
from peps_forge.harness import (
    FIXTURE_NAMES,
    chi_square_vs_markov,
    config_to_dict,
    load_fixture,
    parse_config,
    report_to_json,
    sweep,
    theorem_sweep_check,
)


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_overlap_and_norm_bounds():
    """Overlap >= 1/kappa^2 and z-ratio >= sigma_min^2 on >= 100 instances."""
    start = time.monotonic()
    graphs = [("chain2", CHAIN2), ("chain3", CHAIN3), ("chain4", CHAIN4), ("ring4", RING4)]
    kappas = (1.0, 2.0, 5.0)
    seeds_per_cell = 9
    instances = 0
    min_p_margin = math.inf
    min_z_margin = math.inf
    for (label, spec), kappa_max in itertools.product(graphs, kappas):
        for seed in range(seeds_per_cell):
            tensor_seed = 1000 * int(kappa_max) + 37 * seed + hash(label) % 97
            graph, tensors = random_instance(spec, kappa_max, tensor_seed)
            report = verify_lemma1(graph, tensors, tol=1e-10)
            min_p_margin = min(min_p_margin, report.min_overlap_margin)
            min_z_margin = min(min_z_margin, report.min_z_margin)
            instances += 1
    elapsed = time.monotonic() - start
    ok = (
        instances >= 100
        and min_p_margin >= -1e-10
        and min_z_margin >= -1e-10
        and elapsed < 60.0
    )
    _verdict(
        "criterion 1 (overlap/norm lower bounds)",
        ok,
        f"{instances} instances, zero violations, min overlap margin "
        f"{min_p_margin:.3e}, min z margin {min_z_margin:.3e}, {elapsed:.1f}s",
    )


def test_criterion_2_termination_law():
    """Closed-form termination law, empirically and against its bounds."""
    start = time.monotonic()
    trials = 100_000
    worst_pull = 0.0
    rng = np.random.default_rng(20260810)
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        for m in (1, 2, 4, 8):
            terminated, _ = markov_trials(p, m, trials, rng)
            frequency = terminated.mean()
            expected = p_term(p, m)
            sigma = math.sqrt(expected * (1.0 - expected) / trials)
            pull = abs(frequency - expected) / sigma
            worst_pull = max(worst_pull, pull)
    grid = verify_failure_tail(
        p_grid=[round(0.1 * i, 2) for i in range(1, 10)],
        m_grid=list(range(1, 51)),
        s_grid=list(range(1, 101)),
        p_grid_s=[round(0.05 * i, 2) for i in range(1, 21)],
    )
    elapsed = time.monotonic() - start
    ok = (
        worst_pull <= 4.0
        and grid["min_exp_bound_margin"] >= 0.0
        and grid["min_s_bound_margin"] >= -1e-12
        and elapsed < 30.0
    )
    _verdict(
        "criterion 2 (termination law)",
        ok,
        f"20 grid points x {trials} trials, worst pull {worst_pull:.2f} sigma, "
        f"tail-bound margins >= {min(grid['min_exp_bound_margin'], grid['min_s_bound_margin']):.2e}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_3_success_probability_and_measurement_budget(prepared_zoo):
    """Bounded runs succeed at rate >= 1 - eps - 3 sigma within the budget."""
    start = time.monotonic()
    cfg, _ = load_fixture("chain4")
    result = sweep(cfg, trials=200, base_seed=0, mode="bounded")
    check = theorem_sweep_check(result, sigmas=3.0)
    # the per-vertex cap is exactly ceil(kappa^2 |V| / (2 e eps))
    prep = prepared_zoo["chain4"]
    report = run_algorithm(prep, cfg.eps, seed=0, mode="bounded")
    expected_cap = math.ceil(prep.kappa_max**2 * 4 / (2.0 * math.e * cfg.eps))
    elapsed = time.monotonic() - start
    ok = (
        check["success_ok"]
        and check["bound_ok"]
        and report.alternation_cap == expected_cap
        and elapsed < 300.0
    )
    _verdict(
        "criterion 3 (success probability and budget)",
        ok,
        f"success rate {check['success_rate']:.3f} >= {check['threshold']:.3f}, "
        f"max measurements {check['max_measurements']} <= "
        f"bound {check['measurement_bound']:.1f}, cap m={expected_cap}, {elapsed:.1f}s",
    )


def test_criterion_4_end_to_end_fidelity(prepared_zoo):
    """Every successful run reproduces the directly contracted state."""
    worst = 1.0
    runs = 0
    for name in FIXTURE_NAMES:
        prep = prepared_zoo[name]
        for seed in (1, 2, 3):
            report = run_algorithm(prep, 0.1, seed=seed, mode="until_success")
            assert report.success
            worst = min(worst, report.fidelity)
            runs += 1
        bounded = run_algorithm(prep, 0.1, seed=4, mode="bounded")
        if bounded.success:
            worst = min(worst, bounded.fidelity)
            runs += 1
    ok = worst >= 1.0 - 1e-8
    _verdict(
        "criterion 4 (end-to-end fidelity)",
        ok,
        f"{runs} successful runs across {len(FIXTURE_NAMES)} fixtures, "
        f"worst fidelity 1 - {1.0 - worst:.2e}",
    )


def test_criterion_5_parent_hamiltonian_correctness(fixture_zoo, solved_steps):
    """Zero ground energy, uniqueness, positive gap, identity-map reduction."""
    worst_lambda0 = 0.0
    worst_fidelity = 1.0
    min_gap = math.inf
    worst_identity_gap = 0.0
    steps = 0
    for name, (_, _, graph, tensors) in fixture_zoo.items():
        # each step's assemble_step, its ground_analysis (which raises unless
        # the zero kernel is unique), contraction target and dense spectrum
        for step in solved_steps[name]:
            spectrum = step.eigenvalues
            assert spectrum[0] >= -1e-9  # PSD
            analysis, target = step.searched, step.target
            fid = abs(np.vdot(analysis.ground_state, target)) ** 2
            worst_lambda0 = max(worst_lambda0, abs(analysis.lambda0))
            worst_fidelity = min(worst_fidelity, fid)
            min_gap = min(min_gap, analysis.gap)
            steps += 1
        for eid in range(len(graph.edges)):
            built = parent_term(graph, tensors, eid, frozenset())
            direct = edge_term_on_registers(graph, eid)
            worst_identity_gap = max(
                worst_identity_gap, float(np.abs(built.matrix - direct.matrix).max())
            )
    ok = (
        worst_lambda0 <= 1e-9
        and worst_fidelity >= 1.0 - 1e-9
        and min_gap > 0.0
        and worst_identity_gap <= 1e-12
    )
    _verdict(
        "criterion 5 (parent Hamiltonians)",
        ok,
        f"{steps} step Hamiltonians: |lambda0| <= {worst_lambda0:.2e}, ground "
        f"fidelity >= 1 - {1.0 - worst_fidelity:.2e}, min gap {min_gap:.3f}, "
        f"identity-map term deviation {worst_identity_gap:.2e}",
    )


def test_criterion_6_model_equivalence(prepared_zoo):
    """Full-space repair statistics match the four-state chain (chi-square)."""
    picks = ("chain3", "grid2x2", "chain4")
    trials = 10_000
    overlaps = []
    pvalues = []
    for name in picks:
        prep = prepared_zoo[name]
        step = int(np.argmin(prep.overlaps))
        stats = chi_square_vs_markov(
            prep, step, max_alternations=6, trials=trials, seed=31
        )
        overlaps.append(stats["overlap"])
        pvalues.append(stats["pvalue"])
    distinct = all(
        abs(a - b) > 0.01 for a, b in itertools.combinations(overlaps, 2)
    )
    ok = distinct and all(pv > 0.001 for pv in pvalues)
    _verdict(
        "criterion 6 (model equivalence)",
        ok,
        f"overlaps {[round(p, 3) for p in overlaps]}, "
        f"chi-square p-values {[round(pv, 4) for pv in pvalues]} at {trials} trials",
    )


def test_criterion_7_determinism_and_round_trip(fixture_zoo, prepared_zoo):
    """Byte-identical reports per (config, seed); lossless config round trips."""
    all_identical = True
    for name in FIXTURE_NAMES:
        prep = prepared_zoo[name]
        first = report_to_json(run_algorithm(prep, 0.1, seed=11))
        second = report_to_json(run_algorithm(prep, 0.1, seed=11))
        all_identical &= first == second
    round_trips = True
    for name in FIXTURE_NAMES:
        cfg, _, _, _ = fixture_zoo[name]
        doc = json.dumps(config_to_dict(cfg), sort_keys=True)
        round_trips &= parse_config(json.loads(doc)) == cfg
    ok = all_identical and round_trips
    _verdict(
        "criterion 7 (determinism and round-trip)",
        ok,
        f"byte-identical reports and lossless config round trips on "
        f"{len(FIXTURE_NAMES)} fixtures",
    )
