"""Measurements, plane analysis, termination statistics, algorithm driver."""

from __future__ import annotations

import math

import numpy as np
import pytest

from _helpers import (
    CHAIN2,
    CHAIN3,
    CHAIN4,
    RING4,
    jordan_plane_from_states,
    kernel_basis,
    random_instance,
    vector_driver,
)
from peps_forge import dynamics, hamiltonian, network, streams
from peps_forge.dynamics import (
    PreparedInstance,
    cost_model,
    graph_cost_parameters,
    markov_exact_distribution,
    markov_simulate,
    markov_trials,
    measure_zero_energy,
    p_fail_bound,
    p_term,
    repair_loop_trials,
    required_alternations,
    run_algorithm,
    verify_failure_tail,
    verify_lemma1,
)
from peps_forge.errors import (
    BoundViolationError,
    CapacityError,
    InvalidInputError,
    OrthogonalTargetsError,
)
from peps_forge.harness import FIXTURE_NAMES, random_tensors
from peps_forge.limits import MAX_CHAIN_ROUNDS, MAX_TRIALS
from peps_forge.network import InteractionGraph, canonicalize


def _chain2_prepared(kappa_seed=None):
    if kappa_seed is None:
        g = InteractionGraph.build(2, [(0, 1)])
        tensors = [canonicalize(0, np.eye(2)), canonicalize(1, np.diag([3.0, 1.0]))]
        return PreparedInstance(g, tensors)
    graph, tensors = random_instance(CHAIN2, 3.0, kappa_seed)
    return PreparedInstance(graph, tensors)


class TestMeasureZeroEnergy:
    def test_kernel_state_always_zero(self):
        prep = _chain2_prepared()
        rng = np.random.default_rng(0)
        state = prep.targets[0]
        out = measure_zero_energy(state, prep.targets[0], rng)
        assert out.label == "zero"
        assert out.probability == pytest.approx(1.0, abs=1e-10)
        assert abs(abs(np.vdot(out.state, state)) - 1.0) <= 1e-10

    def test_orthogonal_state_always_nonzero(self):
        prep = _chain2_prepared()
        excited = prep.hamiltonians[0].spectral.eigenvectors[:, -1]
        for seed in range(10):
            out = measure_zero_energy(excited, prep.targets[0], np.random.default_rng(seed))
            assert out.label == "nonzero"
            assert out.probability == pytest.approx(1.0, abs=1e-10)

    def test_born_rule_branch_probability(self):
        prep = _chain2_prepared()
        kernel = prep.targets[0]
        excited = prep.hamiltonians[0].spectral.eigenvectors[:, -1]
        state = math.sqrt(0.36) * kernel + math.sqrt(0.64) * excited
        zero_first = measure_zero_energy(state, kernel, np.random.default_rng(3))
        assert {
            "zero": zero_first.probability,
            "nonzero": 1.0 - zero_first.probability,
        }["zero"] == pytest.approx(0.36, abs=1e-12)

    def test_born_rule_frequency(self):
        # seeded frequency over 10^4 measurements within 4 binomial sigmas
        prep = _chain2_prepared()
        kernel = prep.targets[0]
        excited = prep.hamiltonians[0].spectral.eigenvectors[:, -1]
        p = 0.36
        state = math.sqrt(p) * kernel + math.sqrt(1 - p) * excited
        rng = np.random.default_rng(12345)
        trials = 10_000
        hits = sum(
            measure_zero_energy(state, kernel, rng).label == "zero"
            for _ in range(trials)
        )
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(hits / trials - p) <= 4 * sigma

    def test_repeated_measurement_is_stable(self):
        prep = _chain2_prepared(kappa_seed=5)
        kernel = prep.targets[1]
        rng = np.random.default_rng(7)
        state = prep.targets[0]
        for _ in range(20):
            out = measure_zero_energy(state, kernel, rng)
            again = measure_zero_energy(out.state, kernel, rng)
            assert again.label == out.label
            assert again.probability == pytest.approx(1.0, abs=1e-9)
            state = prep.targets[0]

    def test_post_states_normalized(self):
        prep = _chain2_prepared(kappa_seed=6)
        rng = np.random.default_rng(8)
        state = prep.targets[0]
        for kernel in prep.targets:
            out = measure_zero_energy(state, kernel, rng)
            assert np.linalg.norm(out.state) == pytest.approx(1.0, abs=1e-10)


class TestOverlap:
    """The certified overlaps the driver runs on."""

    def test_identity_map_gives_one(self):
        g = InteractionGraph.build(2, [(0, 1)])
        tensors = [canonicalize(v, np.eye(2)) for v in range(2)]
        assert PreparedInstance(g, tensors).overlaps[0] == pytest.approx(1.0, abs=1e-10)

    def test_scaling_cancels(self):
        g = InteractionGraph.build(2, [(0, 1)])
        tensors = [canonicalize(0, np.eye(2)), canonicalize(1, 5.0 * np.eye(2))]
        assert PreparedInstance(g, tensors).overlaps[1] == pytest.approx(1.0, abs=1e-10)

    def test_hand_computed_diagonal_case(self):
        g = InteractionGraph.build(2, [(0, 1)])
        tensors = [canonicalize(0, np.eye(2)), canonicalize(1, np.diag([3.0, 1.0]))]
        assert PreparedInstance(g, tensors).overlaps[1] == pytest.approx(0.8, rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_condition_number_bound(self, seed):
        graph, tensors = random_instance(CHAIN3, 5.0, 70 + seed)
        for t, p in enumerate(PreparedInstance(graph, tensors).overlaps):
            kappa = tensors[graph.order[t]].kappa
            assert p >= 1.0 / kappa**2 - 1e-10


#: a chain2's two identity maps miscounted, mislabeled or of the wrong shape
MISMATCHED_TENSORS = pytest.mark.parametrize(
    "edit, message",
    [
        (lambda ts: ts[:1], "need 2 tensors, got 1"),
        (lambda ts: ts[::-1], "tensor at position 0 is labeled 1"),
        (lambda ts: [ts[0], canonicalize(1, np.eye(3, 2))], "tensor at vertex 1 has shape"),
    ],
    ids=["count", "label", "shape"],
)


class TestVerifyLemma1:
    def test_identity_maps_saturate(self):
        g = InteractionGraph.build(2, [(0, 1)])
        tensors = [canonicalize(v, np.eye(2)) for v in range(2)]
        report = verify_lemma1(g, tensors)
        assert report.min_overlap_margin == pytest.approx(0.0, abs=1e-10)

    def test_diagonal_margin(self):
        g = InteractionGraph.build(2, [(0, 1)])
        tensors = [canonicalize(0, np.eye(2)), canonicalize(1, np.diag([3.0, 1.0]))]
        report = verify_lemma1(g, tensors)
        check = report.steps[1]
        assert check.kappa == pytest.approx(3.0)
        assert check.overlap_margin == pytest.approx(0.8 - 1.0 / 9.0, rel=1e-9)

    @MISMATCHED_TENSORS
    def test_mismatched_tensors_rejected_before_any_work(self, monkeypatch, edit, message):
        # the first prefix contraction validates the tensors before the pair
        # state is read
        def unreachable(g):
            raise AssertionError("the pair state was read before the tensors were checked")

        monkeypatch.setattr(network, "pair_state", unreachable)
        g = InteractionGraph.build(2, [(0, 1)])
        tensors = [canonicalize(v, np.eye(2)) for v in range(2)]
        with pytest.raises(InvalidInputError, match=message):
            verify_lemma1(g, edit(tensors))

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0])
    def test_rejects_tol_not_finite_or_negative_before_any_work(self, monkeypatch, tol):
        # nan switches both bound checks off; a negative tol fails valid instances
        def unreachable(*args):
            raise AssertionError("a prefix contraction ran before tol was checked")

        monkeypatch.setattr(dynamics, "_prefix_targets", unreachable)
        g = InteractionGraph.build(2, [(0, 1)])
        tensors = [canonicalize(v, np.eye(2)) for v in range(2)]
        with pytest.raises(InvalidInputError, match="tol must be finite and >= 0"):
            verify_lemma1(g, tensors, tol=tol)

    def test_steps_are_slotted(self):
        g = InteractionGraph.build(2, [(0, 1)])
        report = verify_lemma1(g, [canonicalize(v, np.eye(2)) for v in range(2)])
        assert all(not hasattr(step, "__dict__") for step in report.steps)

    def test_many_random_chains_no_violation(self):
        for seed in range(25):
            graph, tensors = random_instance(CHAIN3, 5.0, 300 + seed)
            report = verify_lemma1(graph, tensors)
            assert report.min_overlap_margin >= -1e-10
            assert report.min_z_margin >= -1e-10


class TestJordanPlane:
    def test_aligned_targets_trivial(self):
        state = np.array([1.0, 0.0], dtype=complex)
        plane = jordan_plane_from_states(state, state)
        assert plane.trivial
        assert plane.p == pytest.approx(1.0)
        assert plane.psi_t_perp is None

    def test_orthogonal_targets_rejected(self):
        a = np.array([1.0, 0.0], dtype=complex)
        b = np.array([0.0, 1.0], dtype=complex)
        with pytest.raises(OrthogonalTargetsError):
            jordan_plane_from_states(a, b)

    def test_two_dimensional_half_overlap(self):
        # explicit 2-vector construction at p = 1/2
        psi_t = np.array([1.0, 0.0], dtype=complex)
        psi_next = np.array([-1.0, 1.0], dtype=complex) / math.sqrt(2)
        plane = jordan_plane_from_states(psi_t, psi_next)
        assert plane.p == pytest.approx(0.5, abs=1e-12)
        assert plane.max_relation_residual <= 1e-12
        sp = math.sqrt(0.5)
        assert np.vdot(plane.psi_next, plane.psi_t) == pytest.approx(-sp, abs=1e-12)
        assert np.abs(
            plane.psi_next_perp - np.array([1.0, 1.0]) / math.sqrt(2)
        ).max() <= 1e-12

    def test_phase_convention(self):
        # the next target may carry any global phase; the convention fixes it
        rng = np.random.default_rng(4)
        psi_t = np.array([1.0, 0.0], dtype=complex)
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        psi_next = phase * np.array([0.6, 0.8], dtype=complex)
        plane = jordan_plane_from_states(psi_t, psi_next)
        assert np.vdot(plane.psi_next, plane.psi_t) == pytest.approx(
            -0.6, abs=1e-12
        )
        assert np.vdot(plane.psi_t, plane.psi_next_perp).real >= 0

    @pytest.mark.parametrize("seed", range(4))
    def test_random_instance_relations(self, seed):
        graph, tensors = random_instance(CHAIN3, 5.0, 90 + seed)
        prep = PreparedInstance(graph, tensors)
        for t in range(graph.num_vertices):
            plane = jordan_plane_from_states(prep.targets[t], prep.targets[t + 1])
            if plane.trivial:
                continue
            assert plane.max_relation_residual <= 1e-9
            for a, b in ((plane.psi_t, plane.psi_t_perp), (plane.psi_next, plane.psi_next_perp)):
                assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-9)
                assert np.linalg.norm(b) == pytest.approx(1.0, abs=1e-9)
                assert abs(np.vdot(a, b)) <= 1e-9

    def test_plane_matches_measurement_probabilities(self):
        prep = _chain2_prepared()
        plane = jordan_plane_from_states(prep.targets[1], prep.targets[2])
        # measuring the next Hamiltonian from the perpendicular of the old
        # target must succeed with probability 1 - p
        out = measure_zero_energy(plane.psi_t_perp, prep.targets[2], np.random.default_rng(0))
        prob_hit = out.probability if out.label == "zero" else 1 - out.probability
        assert prob_hit == pytest.approx(1.0 - plane.p, abs=1e-10)

    def test_full_transition_matrix_from_born_probabilities(self):
        # all four chain transition rows, read off the full Hilbert space
        prep = _chain2_prepared(kappa_seed=9)
        plane = jordan_plane_from_states(prep.targets[1], prep.targets[2])
        p = plane.p
        kernel_old = kernel_basis(prep.hamiltonians[1].spectral)
        kernel_new = kernel_basis(prep.hamiltonians[2].spectral)

        def branch_probability(state, kernel):
            return float(np.linalg.norm(kernel.conj().T @ state) ** 2)

        # measuring the new Hamiltonian: from psi_t hit w.p. p, from psi_t_perp
        # hit w.p. 1 - p
        assert branch_probability(plane.psi_t, kernel_new) == pytest.approx(p, abs=1e-10)
        assert branch_probability(plane.psi_t_perp, kernel_new) == pytest.approx(
            1.0 - p, abs=1e-10
        )
        # measuring the old Hamiltonian: from psi_next land on psi_t w.p. p,
        # from psi_next_perp w.p. 1 - p
        assert branch_probability(plane.psi_next, kernel_old) == pytest.approx(
            p, abs=1e-10
        )
        assert branch_probability(plane.psi_next_perp, kernel_old) == pytest.approx(
            1.0 - p, abs=1e-10
        )


def _enumerate_termination_probability(p: float, m: int) -> float:
    """Oracle: sum the probability of every terminating outcome history."""
    total = p  # immediate success on the first measurement
    def walk(remaining: int, weight: float) -> None:
        nonlocal total
        if remaining == 0:
            return
        for undo_weight, on_old in ((1.0 - p, True), (p, False)):
            hit = p if on_old else 1.0 - p
            total += weight * undo_weight * hit
            walk(remaining - 1, weight * undo_weight * (1.0 - hit))
    walk(m, 1.0 - p)
    return total


class TestTerminationLaw:
    def test_certain_success(self):
        assert p_term(1.0, 5) == pytest.approx(1.0)

    def test_zero_alternations_is_single_shot(self):
        for p in (0.2, 0.5, 0.9):
            assert p_term(p, 0) == pytest.approx(p)

    def test_half_one_alternation(self):
        # enumeration over histories of length <= 3 gives 3/4
        assert _enumerate_termination_probability(0.5, 1) == pytest.approx(0.75)
        assert p_term(0.5, 1) == pytest.approx(0.75)

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    def test_matches_enumeration_oracle(self, p, m):
        assert p_term(p, m) == pytest.approx(
            _enumerate_termination_probability(p, m), abs=1e-12
        )

    def test_rejects_bad_arguments(self):
        with pytest.raises(InvalidInputError):
            p_term(0.0, 1)
        with pytest.raises(InvalidInputError):
            p_term(0.5, -1)
        with pytest.raises(InvalidInputError):
            p_term(1.5, 1)


class TestFailureBound:
    def test_certain_success_zero_bound(self):
        assert p_fail_bound(1.0, 3) == 0.0

    def test_frozen_value(self):
        bound = p_fail_bound(0.5, 4)
        assert bound == pytest.approx(0.5 * math.exp(-2.0), rel=1e-12)
        assert 1.0 - p_term(0.5, 4) == pytest.approx(0.03125, abs=1e-12)
        assert 1.0 - p_term(0.5, 4) <= bound

    def test_fractional_alternations_allowed(self):
        assert p_fail_bound(0.4, 2.5) == pytest.approx(
            0.6 * math.exp(-2.0 * 2.5 * 0.4 * 0.6), rel=1e-12
        )

    def test_grid_inequality(self):
        stats = verify_failure_tail(
            p_grid=[round(0.1 * i, 2) for i in range(1, 10)],
            m_grid=list(range(1, 51)),
            s_grid=list(range(1, 101)),
            p_grid_s=[round(0.05 * i, 2) for i in range(1, 21)],
        )
        assert stats["min_exp_bound_margin"] >= 0.0
        assert stats["min_s_bound_margin"] >= -1e-12

    @pytest.mark.parametrize("excess, passes", [(1e-10, True), (1e-8, False)])
    def test_closed_form_checked_against_tol(self, monkeypatch, excess, passes):
        # at m = 0 the closed form meets the bound exactly; raise the failure
        # probability by ``excess``, above 1e-12 but below or above tol
        exact = dynamics.p_term
        monkeypatch.setattr(dynamics, "p_term", lambda p, m: exact(p, m) - excess)
        args = dict(p_grid=[0.5], m_grid=[0, 1], s_grid=[1], p_grid_s=[0.3], tol=1e-9)
        if not passes:
            with pytest.raises(BoundViolationError, match="closed-form failure"):
                verify_failure_tail(**args)
            return
        stats = verify_failure_tail(**args)
        assert stats["min_exp_bound_margin"] == pytest.approx(-excess, rel=1e-6)
        assert stats["pairs_checked"] == 2


class _CountingGenerator:
    """A generator that records how many uniforms were drawn."""

    def __init__(self, seed):
        self.inner = np.random.default_rng(seed)
        self.draws = 0

    def random(self):
        self.draws += 1
        return self.inner.random()


class TestMarkovChain:
    def test_certain_success_one_measurement(self):
        for seed in range(5):
            outcomes = markov_simulate(1.0, 3, np.random.default_rng(seed))
            assert outcomes == ("zero",)

    def test_measurement_budget_respected(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = rng.uniform(0.05, 0.95)
            m = int(rng.integers(0, 6))
            outcomes = markov_simulate(p, m, rng)
            used = len(outcomes)
            assert used <= 2 * m + 1
            assert used % 2 == 1
            if outcomes[-1] != "zero":
                assert used == 2 * m + 1

    def test_scalar_frequency_matches_closed_form(self):
        rng = np.random.default_rng(11)
        trials = 20_000
        hits = sum(markov_simulate(0.5, 1, rng)[-1] == "zero" for _ in range(trials))
        expected = 0.75
        sigma = math.sqrt(expected * (1 - expected) / trials)
        assert abs(hits / trials - expected) <= 4 * sigma

    def test_vectorized_frequency_matches_closed_form(self):
        rng = np.random.default_rng(12)
        terminated, used = markov_trials(0.5, 1, 100_000, rng)
        expected = 0.75
        sigma = math.sqrt(expected * (1 - expected) / 100_000)
        assert abs(terminated.mean() - expected) <= 4 * sigma
        assert used.max() <= 3

    def test_vectorized_distribution_matches_exact(self):
        rng = np.random.default_rng(13)
        p, m, trials = 0.6, 4, 100_000
        terminated, used = markov_trials(p, m, trials, rng)
        cats, probs = markov_exact_distribution(p, m)
        for cat, prob in zip(cats, probs):
            if cat == -1:
                observed = np.sum(~terminated)
            else:
                observed = np.sum(terminated & (used == cat))
            sigma = math.sqrt(max(prob * (1 - prob), 1e-12) * trials)
            assert abs(observed - prob * trials) <= 5 * sigma

    @pytest.mark.parametrize("p", [0.0, 5e-10, 1e-9])
    def test_overlap_below_zero_tol_never_lands(self, p):
        for seed in range(20):
            rng = _CountingGenerator(seed)
            outcomes = markov_simulate(p, 3, rng, zero_tol=1e-9)
            assert outcomes[0] == outcomes[2] == outcomes[4] == outcomes[6] == "nonzero"
            assert outcomes[1::2] == ("zero",) * 3  # every undo lands w.p. 1 - p
            assert rng.draws == len(outcomes) == 7

    @pytest.mark.parametrize("p", [1.0, 1.0 - 5e-10, 1.0 + 1e-12])
    def test_overlap_within_zero_tol_of_one_always_lands(self, p):
        for seed in range(20):
            rng = _CountingGenerator(seed)
            assert markov_simulate(p, 3, rng, zero_tol=1e-9) == ("zero",)
            assert rng.draws == 1

    def test_one_draw_per_measurement(self):
        for seed in range(200):
            for cap in (0, 2, None):
                rng = _CountingGenerator(seed)
                outcomes = markov_simulate(0.3, cap, rng)
                assert rng.draws == len(outcomes)

    def test_draw_order_is_first_shot_then_undo_retry_pairs(self):
        # labels replayed from the same uniforms with the four chain rules
        for seed in range(200):
            p = 0.37
            outcomes = markov_simulate(p, 4, np.random.default_rng(seed))
            draws = np.random.default_rng(seed).random(len(outcomes))
            expected = ["zero" if draws[0] < p else "nonzero"]
            for undo, retry in zip(draws[1::2], draws[2::2]):
                on_old = undo < 1.0 - p
                expected += ["zero" if on_old else "nonzero"]
                expected += ["zero" if retry < (p if on_old else 1.0 - p) else "nonzero"]
            assert outcomes == tuple(expected)

    def test_no_cap_runs_until_success(self):
        rng = np.random.default_rng(21)
        lengths = []
        for _ in range(500):
            outcomes = markov_simulate(0.02, None, rng)
            assert outcomes[-1] == "zero"
            assert "zero" not in outcomes[0::2][:-1]
            lengths.append(len(outcomes))
        # at p = 0.02 a cap of 10 alternations would have stopped some runs
        assert max(lengths) > 21

    def test_no_cap_below_zero_tol_rejected(self):
        with pytest.raises(OrthogonalTargetsError):
            markov_simulate(1e-10, None, np.random.default_rng(0))
        assert markov_simulate(1e-10, 0, np.random.default_rng(0)) == ("nonzero",)

    def test_invalid_arguments_rejected(self):
        rng = np.random.default_rng(0)
        for p in (-0.1, 1.5, math.nan):
            with pytest.raises(InvalidInputError):
                markov_simulate(p, 1, rng)
        with pytest.raises(InvalidInputError):
            markov_simulate(0.5, -1, rng)
        with pytest.raises(InvalidInputError, match="max_alternations"):
            markov_trials(0.5, -1, 5, rng)

    @pytest.mark.parametrize("zero_tol", [0.0, -1e-9, 0.5, 0.9, math.inf, math.nan])
    def test_zero_tol_outside_the_open_half_interval_rejected(self, zero_tol):
        # from 1/2 up a branch of probability 1/2 is within zero_tol of both
        # 0 and 1: at 0.9 such a chain never lands and spends its whole cap
        with pytest.raises(InvalidInputError, match="zero_tol"):
            markov_simulate(0.5, 3, np.random.default_rng(0), zero_tol=zero_tol)
        graph = InteractionGraph.build(2, [(0, 1)])
        tensors = [canonicalize(0, np.eye(2)), canonicalize(1, np.diag([3.0, 1.0]))]
        with pytest.raises(InvalidInputError, match="zero_tol"):
            PreparedInstance(graph, tensors, zero_tol=zero_tol)
        prep = _chain2_prepared()
        prep.zero_tol = zero_tol  # past the constructor: the chain's own check
        with pytest.raises(InvalidInputError, match="zero_tol"):
            run_algorithm(prep, 0.1, seed=0)
        with pytest.raises(InvalidInputError, match="zero_tol"):
            dynamics.run_seeds(prep, 0.1, [0, 1])

    def test_trial_count_capped_before_drawing(self):
        rng = np.random.default_rng(0)
        for trials in (10**15, MAX_TRIALS + 1):
            with pytest.raises(CapacityError, match="trials"):
                markov_trials(0.5, 3, trials, rng)
        # nothing was drawn, and the cap itself runs
        assert rng.random() == np.random.default_rng(0).random()
        terminated, used = markov_trials(0.5, 3, MAX_TRIALS, rng)
        assert len(terminated) == len(used) == MAX_TRIALS

    def test_chain_work_capped_before_drawing(self):
        # at p = 1e-300 no chain lands: every trial would run all m rounds
        class Undrawable:
            def random(self, *args):
                raise AssertionError("a uniform was drawn for a batch above the work cap")

        for m, trials in ((10**6, 10**6), (MAX_CHAIN_ROUNDS + 1, 1)):
            with pytest.raises(CapacityError, match=r"max_alternations \* trials"):
                markov_trials(1e-300, m, trials, Undrawable())
        # the cap itself runs; at p = 1/2 the chain lands within a few rounds
        terminated, _ = markov_trials(0.5, MAX_CHAIN_ROUNDS, 1, np.random.default_rng(0))
        assert terminated.all()

    def test_exact_distribution_consistency(self):
        for p in (0.2, 0.5, 0.8):
            for m in (0, 1, 3, 6):
                cats, probs = markov_exact_distribution(p, m)
                assert probs.sum() == pytest.approx(1.0, abs=1e-12)
                assert probs[:-1].sum() == pytest.approx(p_term(p, m), abs=1e-12)
                assert cats[-1] == -1


class TestRequiredAlternations:
    def test_frozen_examples(self):
        assert required_alternations(1.0, 4, 0.1) == (8, 8)
        assert required_alternations(1.0, 2, 0.5) == (1, 1)
        assert required_alternations(2.0, 4, 0.1) == (8, 30)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            required_alternations(0.5, 4, 0.1)
        with pytest.raises(InvalidInputError):
            required_alternations(1.0, 1, 0.1)
        with pytest.raises(InvalidInputError):
            required_alternations(1.0, 4, 0.0)

    @pytest.mark.parametrize(
        "kappa, num_vertices, eps",
        [(1.0, 3, 5e-324), (1e200, 2, 0.1), (2.0, 10**400, 0.1)],
        ids=["eps", "kappa", "vertices"],
    )
    def test_budget_past_the_float_range_invalid(self, kappa, num_vertices, eps):
        with pytest.raises(InvalidInputError, match="alternation budget"):
            required_alternations(kappa, num_vertices, eps)


class TestCostModel:
    def test_frozen_examples(self):
        model = cost_model(4, 3, 1.0, 0.1, 1.0, 2, 2)
        assert model.measurement_bound == pytest.approx(
            16.0 / (0.1 * math.e) + 4.0, rel=1e-12
        )
        small = cost_model(2, 1, 1.0, 1.0, 1.0, 2, 1)
        assert small.measurement_bound == pytest.approx(4.0 / math.e + 2.0, rel=1e-12)

    def test_runtime_bound_formula(self):
        model = cost_model(3, 2, 2.0, 0.2, 0.5, 4, 2)
        expected = 9 * 4 * 4 / (0.2 * 0.5) + 3 * 2 * 4**6
        assert model.runtime_bound == pytest.approx(expected, rel=1e-12)

    def test_graph_wrapper(self):
        graph, tensors = random_instance(CHAIN4, 2.0, 7)
        params = graph_cost_parameters(graph)
        assert params == {
            "num_vertices": 4,
            "num_edges": 3,
            "phys_dim": max(graph.physical_dims),
            "degree": 2,
        }
        model = cost_model(**params, kappa=2.0, eps=0.1, gap=0.5)
        assert model == cost_model(4, 3, 2.0, 0.1, 0.5, max(graph.physical_dims), 2)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInputError):
            cost_model(0, 1, 1.0, 0.1, 1.0, 2, 2)

    @pytest.mark.parametrize(
        "args",
        [
            (2, 1, 1e200, 0.1, 1.0, 2, 2),  # kappa**2 overflows
            (10**400, 1, 1.0, 0.1, 1.0, 2, 2),  # |V|^2 is no float
            (3, 10**200, 1.0, 0.1, 1.0, 2, 2),  # |E|^2 is no float
            (3, 2, 1.0, 0.1, 1.0, 10**59, 2),  # d^6 is no float
            (2, 1, 2.0, 0.1, 1e-320, 2, 2),  # runtime bound is inf
            (3, 2, 1.0, 5e-324, 0.1, 2, 2),  # eps * gap underflows to 0
        ],
        ids=["kappa", "vertices", "edges", "phys_dim", "gap", "eps"],
    )
    def test_bound_past_the_float_range_invalid(self, args):
        with pytest.raises(InvalidInputError, match="cost bounds"):
            cost_model(*args)


class TestRunAlgorithm:
    def test_identity_tensors_single_shots(self):
        g = InteractionGraph.build(3, [(0, 1), (1, 2)])
        tensors = [canonicalize(v, np.eye(g.register_dim(v))) for v in range(3)]
        prep = PreparedInstance(g, tensors)
        report = run_algorithm(prep, 0.1, seed=0)
        assert report.success
        assert report.total_measurements == 3
        assert all(r.measurements == 1 for r in report.vertices)
        assert all(r.outcomes == ("zero",) for r in report.vertices)
        assert report.fidelity >= 1.0 - 1e-10

    def test_until_success_reaches_target(self):
        graph, tensors = random_instance(CHAIN3, 5.0, 227)
        prep = PreparedInstance(graph, tensors)
        report = run_algorithm(prep, 0.1, seed=3, mode="until_success")
        assert report.success
        assert report.fidelity >= 1.0 - 1e-8
        assert report.alternation_cap is None

    def test_negative_seed_rejected(self, prepared_zoo):
        # and every seed that is not an integer, in run_algorithm and run_seeds
        for seed in (-1, 3.0, 3.5, "3"):
            with pytest.raises(InvalidInputError, match="seed"):
                run_algorithm(prepared_zoo["chain2"], 0.1, seed=seed)
            with pytest.raises(InvalidInputError, match="seed"):
                dynamics.run_seeds(prepared_zoo["chain2"], 0.1, [4, seed])

    def test_numpy_integer_seed_runs_like_the_equal_int(self, prepared_zoo):
        prep = prepared_zoo["ring4"]
        seeds = [np.int64(3), np.uint64(2**64 - 1), np.int32(7)]
        for mode in ("bounded", "until_success"):
            reports = [run_algorithm(prep, 0.1, int(seed), mode) for seed in seeds]
            assert [run_algorithm(prep, 0.1, seed, mode) for seed in seeds] == reports
            want = [r.success for r in reports], [r.total_measurements for r in reports]
            assert dynamics.run_seeds(prep, 0.1, seeds, mode) == want

    @pytest.mark.parametrize("name", ["ring4", "grid2x2"])
    def test_run_seeds_until_success_equals_single_runs(self, prepared_zoo, monkeypatch, name):
        # seed blocks of 64 and a short last one; enough seeds that some
        # chains continue in blocks and some cross a block boundary
        monkeypatch.setattr(dynamics, "SEED_BLOCK", 64)
        prep = prepared_zoo[name]
        seeds = range(2**32 - 100, 2**32 + 500)
        reports = [run_algorithm(prep, 0.1, seed, "until_success") for seed in seeds]
        want = [r.success for r in reports], [r.total_measurements for r in reports]
        assert dynamics.run_seeds(prep, 0.1, seeds, "until_success") == want
        longest = max(v.measurements for r in reports for v in r.vertices)
        assert longest > 1 + 2 * dynamics.SCALAR_ROUNDS + streams.BLOCK, longest

    @pytest.mark.parametrize("cap", [2.5, 2.0, "2", math.nan])
    def test_non_integer_cap_rejected_before_any_stream(self, prepared_zoo, monkeypatch, cap):
        # int() would have run 2.5 and 2.0 with a cap of 2
        def unreachable(*args):
            raise AssertionError("a stream was seeded before the cap was checked")

        monkeypatch.setattr(dynamics, "SeedStreams", unreachable)
        with pytest.raises(InvalidInputError, match="max_alternations must be an integer"):
            run_algorithm(prepared_zoo["chain2"], 0.1, 0, max_alternations=cap)

    def test_one_seed_sequence_and_no_generator_per_run(self, prepared_zoo, monkeypatch):
        made = []
        for name in ("SeedSequence", "Generator", "PCG64"):

            def counting(*args, _name=name, _cls=getattr(np.random, name), **kwargs):
                made.append(_name)
                return _cls(*args, **kwargs)

            monkeypatch.setattr(np.random, name, counting)
        # ring4's last vertex misses its first shots at seed 0
        for seed in (0, 2**32 + 7):
            made.clear()
            report = run_algorithm(prepared_zoo["ring4"], 0.1, seed, mode="until_success")
            assert len(report.vertices) == 4
            assert made == ["SeedSequence"], seed

    def test_deterministic_reports(self):
        graph, tensors = random_instance(RING4, 5.0, 408)
        prep = PreparedInstance(graph, tensors)
        a = run_algorithm(prep, 0.1, seed=42)
        b = run_algorithm(prep, 0.1, seed=42)
        assert a == b
        c = run_algorithm(prep, 0.1, seed=43)
        assert c != a

    def test_total_is_sum_of_vertex_counts(self):
        graph, tensors = random_instance(RING4, 5.0, 409)
        prep = PreparedInstance(graph, tensors)
        for seed in range(10):
            report = run_algorithm(prep, 0.1, seed=seed, mode="until_success")
            assert report.total_measurements == sum(
                r.measurements for r in report.vertices
            )

    def test_first_shot_probability_equals_overlap(self):
        graph, tensors = random_instance(CHAIN3, 5.0, 227)
        prep = PreparedInstance(graph, tensors)
        report = run_algorithm(prep, 0.1, seed=1, mode="until_success")
        for record in report.vertices:
            assert record.first_shot_probability == pytest.approx(
                record.overlap, abs=1e-9
            )

    def test_bounded_failure_reported(self):
        graph, tensors = random_instance(CHAIN3, 5.0, 227)
        prep = PreparedInstance(graph, tensors)
        # a zero-alternation cap fails as soon as a first shot misses
        failed = None
        for seed in range(50):
            report = run_algorithm(prep, 0.1, seed=seed, max_alternations=0)
            assert report.alternation_cap == 0
            if not report.success:
                failed = report
                break
        assert failed is not None
        assert failed.fidelity is None
        assert not failed.vertices[-1].succeeded
        assert failed.vertices[-1].outcomes[-1] == "nonzero"
        # the run stops at the failing vertex
        assert len(failed.vertices) <= graph.num_vertices

    def test_bounded_measurements_capped(self):
        graph, tensors = random_instance(RING4, 5.0, 408)
        prep = PreparedInstance(graph, tensors)
        for seed in range(20):
            report = run_algorithm(prep, 0.25, seed=seed, mode="bounded")
            cap = report.alternation_cap
            for record in report.vertices:
                assert record.measurements <= 2 * cap + 1
                assert record.alternations <= cap

    def test_outcome_grammar(self):
        # outcomes alternate: first shot, then (undo, retry) pairs
        graph, tensors = random_instance(CHAIN3, 5.0, 227)
        prep = PreparedInstance(graph, tensors)
        report = run_algorithm(prep, 0.1, seed=9, mode="until_success")
        for record in report.vertices:
            assert len(record.outcomes) == 1 + 2 * record.alternations
            assert record.outcomes[-1] == "zero"

    def test_mode_validation(self):
        prep = _chain2_prepared()
        with pytest.raises(InvalidInputError):
            run_algorithm(prep, 0.1, seed=0, mode="forever")
        with pytest.raises(InvalidInputError):
            run_algorithm(prep, 1.5, seed=0)

    def test_custom_order_run(self):
        graph, tensors = random_instance(CHAIN3, 3.0, 88, order=(2, 0, 1))
        prep = PreparedInstance(graph, tensors)
        report = run_algorithm(prep, 0.1, seed=5, mode="until_success")
        assert report.success
        assert [r.vertex for r in report.vertices] == [2, 0, 1]
        assert report.fidelity >= 1.0 - 1e-8

    def test_mixed_bond_dimensions(self):
        g = InteractionGraph.build(3, [(0, 1), (1, 2)], bond_dim=[2, 3])
        prep = PreparedInstance(g, random_tensors(g, 2.0, 14))
        report = run_algorithm(prep, 0.1, seed=6, mode="until_success")
        assert report.success
        assert report.fidelity >= 1.0 - 1e-8


class TestPlaneDriver:
    """``run_algorithm`` against the full-space reference driver, seed for seed."""

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    @pytest.mark.parametrize(
        "kw",
        [{}, {"max_alternations": 0}, {"max_alternations": 1}, {"mode": "until_success"}],
        ids=["default-cap", "cap-0", "cap-1", "until-success"],
    )
    def test_matches_vector_driver(self, name, kw, prepared_zoo):
        prep = prepared_zoo[name]
        # seeds of one to five 32-bit words
        multi_word = [base + k for base in (2**32, 2**64, 2**128) for k in range(5)]
        for seed in [*range(200), *multi_word]:
            report = run_algorithm(prep, 0.1, seed, **kw)
            ref = vector_driver(prep, 0.1, seed, **kw)
            assert tuple(r.outcomes for r in report.vertices) == ref.outcomes
            assert report.success == ref.success
            assert report.total_measurements == ref.total_measurements
            for record, first_shot in zip(report.vertices, ref.first_shot_probabilities):
                assert record.first_shot_probability == pytest.approx(first_shot, abs=1e-12)
            if ref.success:
                assert report.fidelity == pytest.approx(ref.fidelity, abs=1e-12)
            else:
                assert report.fidelity is None

    def test_no_state_vector_is_touched(self, prepared_zoo, monkeypatch):
        calls = []

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        for owner in (dynamics, network):
            monkeypatch.setattr(
                owner, "restore_gauge", counting("restore_gauge", owner.restore_gauge)
            )
        monkeypatch.setattr(
            dynamics,
            "measure_zero_energy",
            counting("measure_zero_energy", dynamics.measure_zero_energy),
        )
        prep = prepared_zoo["grid2x2"]
        for seed in range(20):
            assert run_algorithm(prep, 0.1, seed, mode="until_success").success
            run_algorithm(prep, 0.1, seed, max_alternations=0)
        assert calls == []
        # the oracle still measures on vectors
        repair_loop_trials(prep, 1, 2, 3, seed=0)
        assert "measure_zero_energy" in calls


def _encode(report) -> tuple[str, ...]:
    return tuple(
        "".join("Z" if o == "zero" else "N" for o in v.outcomes) for v in report.vertices
    )


class TestMeasurementStreams:
    """Driver runs on the per-vertex streams (the streams: ``test_streams.py``)."""

    # outcome sequences (Z = zero, N = nonzero) recorded before the streams
    # were derived in integer arithmetic
    GOLDEN_RUNS = [
        ("grid2x2", 5, {"mode": "until_success"}, ("Z", "NNNNNNNNNNNNNZZ", "Z", "Z")),
        ("grid2x2", 15, {}, ("Z", "Z", "NNNZZ", "Z")),
        ("grid2x2", 2**32 + 7, {}, ("Z", "Z", "Z", "Z")),
        ("grid2x2", 2**70 + 4, {"mode": "until_success"}, ("Z", "Z", "NNNNNNZ", "Z")),
        ("grid2x2", 2**70 + 4, {"max_alternations": 1}, ("Z", "Z", "NNN")),
        ("chain3", 7, {"mode": "until_success"}, ("Z", "NNZ", "Z")),
        ("chain3", 2**70 + 3, {}, ("Z", "NNNZZ", "Z")),
        ("chain3", 2**70 + 3, {"max_alternations": 1}, ("Z", "NNN")),
    ]

    @pytest.mark.parametrize("name,seed,kw,outcomes", GOLDEN_RUNS)
    def test_golden_runs(self, name, seed, kw, outcomes, prepared_zoo):
        report = run_algorithm(prepared_zoo[name], 0.1, seed, **kw)
        assert _encode(report) == outcomes
        assert report.success == (outcomes[-1][-1] == "Z")
        assert report.total_measurements == sum(map(len, outcomes))


class TestRepairLoopTrials:
    def test_budget_and_termination_shape(self):
        prep = _chain2_prepared()
        terminated, used = repair_loop_trials(prep, 1, 3, 500, seed=0)
        assert used.max() <= 7
        assert np.all(used % 2 == 1)
        assert np.all(used[~terminated] == 7)

    def test_frequency_matches_markov_law(self):
        prep = _chain2_prepared()  # overlap 0.8 at step 1
        m, trials = 2, 4000
        terminated, _ = repair_loop_trials(prep, 1, m, trials, seed=1)
        expected = p_term(0.8, m)
        sigma = math.sqrt(expected * (1 - expected) / trials)
        assert abs(terminated.mean() - expected) <= 4 * sigma

    def test_driver_statistics_match_chain_at_fixed_vertex(self):
        # alternation counts harvested from full runs follow the exact
        # chain distribution at that vertex's overlap
        prep = _chain2_prepared()  # overlap 0.8 at step 1
        runs = 3000
        counts: dict[int, int] = {}
        for seed in range(runs):
            report = run_algorithm(prep, 0.1, seed=seed, mode="until_success")
            record = report.vertices[1]
            counts[record.measurements] = counts.get(record.measurements, 0) + 1
        p = prep.overlaps[1]
        stay = p**2 + (1 - p) ** 2
        # P(used = 1) = p, P(used = 2j+1) = (1-p) stay^(j-1) (1-stay)
        assert counts[1] / runs == pytest.approx(p, abs=4 * math.sqrt(p / runs))
        p3 = (1 - p) * (1 - stay)
        assert counts.get(3, 0) / runs == pytest.approx(
            p3, abs=4 * math.sqrt(p3 / runs)
        )


class TestPreparedInstance:
    @MISMATCHED_TENSORS
    def test_mismatched_tensors_rejected_before_any_work(self, monkeypatch, edit, message):
        # the first step's assembly validates the tensors before any term is built
        def unreachable(*args):
            raise AssertionError("a term was built before the tensors were checked")

        monkeypatch.setattr(hamiltonian, "parent_term", unreachable)
        g = InteractionGraph.build(2, [(0, 1)])
        tensors = [canonicalize(v, np.eye(2)) for v in range(2)]
        with pytest.raises(InvalidInputError, match=message):
            PreparedInstance(g, edit(tensors))

    def test_preflight_artifacts(self, prepared_zoo):
        prep = prepared_zoo["chain3"]
        n = prep.graph.num_vertices
        assert len(prep.hamiltonians) == n + 1
        assert len(prep.targets) == n + 1
        assert len(prep.overlaps) == n
        assert prep.min_gap > 0
        assert prep.kappa_max >= 1.0
        assert np.linalg.norm(prep.reference_state) == pytest.approx(1.0, abs=1e-10)

    def test_overlap_consistency(self, prepared_zoo):
        prep = prepared_zoo["ring4"]
        for t, p in enumerate(prep.overlaps):
            psi_t, _ = network.contract_partial(prep.graph, prep.tensors, t)
            psi_next, _ = network.contract_partial(prep.graph, prep.tensors, t + 1)
            assert p == pytest.approx(abs(np.vdot(psi_next, psi_t)) ** 2, abs=1e-12)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fidelity_is_the_restored_last_target(self, name, prepared_zoo):
        prep = prepared_zoo[name]
        restored = network.restore_gauge(prep.graph, prep.tensors, prep.targets[-1])
        assert prep.fidelity == abs(np.vdot(restored, prep.reference_state)) ** 2
        assert prep.fidelity >= 1.0 - 1e-8
