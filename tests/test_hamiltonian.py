"""Term construction, step assembly bookkeeping, spectral analysis."""

from __future__ import annotations

import math

import numpy as np
import pytest

from scipy.sparse.linalg import ArpackNoConvergence, eigs

from _helpers import CHAIN2, CHAIN3, RING4, random_complex, random_instance
from peps_forge import hamiltonian, linalg, network
from peps_forge.dynamics import PreparedInstance, repair_loop_trials, run_algorithm
from peps_forge.errors import (
    DegenerateGroundSpaceError,
    InvalidInputError,
    NumericalFailureError,
)
from peps_forge.hamiltonian import (
    LocalHamiltonian,
    LocalTerm,
    assemble_step,
    edge_term,
    edge_term_on_registers,
    ground_analysis,
    parent_term,
    penalty_term,
    terms_to_json,
)
from peps_forge.network import InteractionGraph, canonicalize


class TestEdgeTerm:
    def test_bond_two_spectrum(self):
        h = edge_term(2)
        eigs = np.linalg.eigvalsh(h)
        assert np.allclose(eigs, [0.0, 1.0, 1.0, 1.0], atol=1e-12)

    def test_annihilates_pair(self):
        h = edge_term(2)
        omega = np.zeros(4)
        omega[[0, 3]] = 1.0 / math.sqrt(2)
        assert np.linalg.norm(h @ omega) <= 1e-12

    def test_bond_three_rank(self):
        h = edge_term(3)
        eigs = np.linalg.eigvalsh(h)
        assert int(np.sum(eigs > 0.5)) == 8

    def test_projector(self):
        h = edge_term(3)
        assert np.abs(h @ h - h).max() <= 1e-12

    def test_rejects_bond_one(self):
        with pytest.raises(InvalidInputError):
            edge_term(1)


class TestPenaltyTerm:
    def test_identity_projector_gives_zero(self):
        term = penalty_term(0, np.eye(4), 1.0)
        assert np.abs(term.matrix).max() == 0.0
        assert term.kind == "penalty"
        assert term.support == (0,)

    def test_rank_one_penalty(self):
        term = penalty_term(1, np.diag([1.0, 0.0]), 1.0)
        assert np.abs(term.matrix - np.diag([0.0, 1.0])).max() <= 1e-12

    def test_weighted_spectrum(self):
        p_phy = np.zeros((4, 4))
        p_phy[0, 0] = 1.0
        term = penalty_term(2, p_phy, 5.0)
        eigs = np.linalg.eigvalsh(term.matrix)
        assert np.allclose(eigs, [0.0, 5.0, 5.0, 5.0], atol=1e-12)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(InvalidInputError):
            penalty_term(0, np.eye(2), 0.0)


class TestParentTerm:
    def test_identity_maps_reduce_to_edge_term(self):
        graph, tensors = random_instance(RING4, 3.0, 11)
        for eid in range(len(graph.edges)):
            built = parent_term(graph, tensors, eid, frozenset())
            direct = edge_term_on_registers(graph, eid)
            assert built.kind == "edge_pair"
            assert built.support == direct.support
            assert np.abs(built.matrix - direct.matrix).max() <= 1e-12

    def test_kind_labels(self):
        graph, tensors = random_instance(CHAIN2, 2.0, 3)
        assert parent_term(graph, tensors, 0, frozenset()).kind == "edge_pair"
        assert parent_term(graph, tensors, 0, frozenset({0})).kind == "boundary"
        assert parent_term(graph, tensors, 0, frozenset({0, 1})).kind == "parent"

    @pytest.mark.parametrize("seed", range(4))
    def test_annihilates_contracted_state(self, seed):
        graph, tensors = random_instance(CHAIN2, 4.0, 30 + seed)
        term = parent_term(graph, tensors, 0, frozenset({0, 1}))
        state, _ = network.contract_partial(graph, tensors, 2)
        assert np.linalg.norm(term.matrix @ state) <= 1e-10

    def test_projector_and_complement_rank(self):
        graph, tensors = random_instance(RING4, 3.0, 12)
        term = parent_term(graph, tensors, 0, frozenset({0, 1}))
        m = term.matrix
        assert np.abs(m @ m - m).max() <= 1e-9
        eigs = np.linalg.eigvalsh(m)
        r_u = graph.register_dim(0)
        r_v = graph.register_dim(1)
        expected_rank = r_u * r_v - (r_u * r_v) // 4
        assert int(np.sum(eigs > 0.5)) == expected_rank

    def test_annihilates_every_later_prefix(self):
        graph, tensors = random_instance(CHAIN3, 3.0, 13)
        # edge (0,1) fully processed after two steps of the natural order
        term = parent_term(graph, tensors, 0, frozenset({0, 1}))
        embedded = linalg.embed_term(term.matrix, term.support, graph.register_dims)
        for prefix in (2, 3):
            state, _ = network.contract_partial(graph, tensors, prefix)
            assert np.linalg.norm(embedded @ state) <= 1e-10

    def test_boundary_term_annihilates_prefix(self):
        graph, tensors = random_instance(CHAIN3, 3.0, 14)
        term = parent_term(graph, tensors, 0, frozenset({0}))
        embedded = linalg.embed_term(term.matrix, term.support, graph.register_dims)
        state, _ = network.contract_partial(graph, tensors, 1)
        assert np.linalg.norm(embedded @ state) <= 1e-10

    def test_ill_conditioned_image_rejected(self):
        # a spectator factor scaled by 1e-7 gives a Gram condition ~1e14
        g = InteractionGraph.build(3, [(0, 1), (1, 2)])
        from peps_forge.errors import ConditioningError

        tensors = [
            canonicalize(0, np.eye(2)),
            canonicalize(1, np.diag([1.0, 1e-7, 1.0, 1e-7])),
            canonicalize(2, np.eye(2)),
        ]
        with pytest.raises(ConditioningError):
            parent_term(g, tensors, 0, frozenset({0, 1}))


def _kinds(h: LocalHamiltonian) -> list[str]:
    return [t.kind for t in h.terms]


class TestAssembleStep:
    def test_step_zero_is_edge_terms_only(self):
        graph, tensors = random_instance(RING4, 2.0, 40)
        h0 = assemble_step(graph, tensors, 0)
        assert len(h0.terms) == len(graph.edges)
        assert set(_kinds(h0)) == {"edge_pair"}

    def test_final_step_with_identity_tensors_keeps_kernel(self):
        g = InteractionGraph.build(3, [(0, 1), (1, 2)])
        tensors = [canonicalize(v, np.eye(g.register_dim(v))) for v in range(3)]
        h0 = assemble_step(g, tensors, 0)
        h_final = assemble_step(g, tensors, 3)
        p0 = h0.spectral.kernel_basis()
        p3 = h_final.spectral.kernel_basis()
        assert p0.shape == p3.shape
        overlap = np.abs(p0.conj().T @ p3)
        assert overlap.max() >= 1.0 - 1e-10

    def test_first_step_replaces_only_touching_terms(self):
        graph, tensors = random_instance(CHAIN3, 3.0, 41)
        h0 = assemble_step(graph, tensors, 0)
        h1 = assemble_step(graph, tensors, 1)
        # vertex 0 processed: edge (0,1) becomes a boundary term,
        # edge (1,2) keeps its pair term, one penalty appears on vertex 0
        by_support_0 = {t.support: t for t in h0.terms}
        by_support_1 = {t.support: t for t in h1.terms if t.kind != "penalty"}
        assert by_support_1[(0, 1)].kind == "boundary"
        assert by_support_1[(1, 2)].kind == "edge_pair"
        assert np.abs(
            by_support_1[(1, 2)].matrix - by_support_0[(1, 2)].matrix
        ).max() == 0.0
        penalties = [t for t in h1.terms if t.kind == "penalty"]
        assert [t.support for t in penalties] == [(0,)]

    def test_term_counts_grow_with_step(self):
        graph, tensors = random_instance(RING4, 2.0, 42)
        for t in range(5):
            h = assemble_step(graph, tensors, t)
            assert len(h.terms) == len(graph.edges) + t
            assert h.step == t

    def test_custom_order_bookkeeping(self):
        graph, tensors = random_instance(CHAIN3, 2.0, 45, order=(2, 0, 1))
        h1 = assemble_step(graph, tensors, 1)
        non_penalty = {t.support: t.kind for t in h1.terms if t.kind != "penalty"}
        assert non_penalty[(1, 2)] == "boundary"
        assert non_penalty[(0, 1)] == "edge_pair"

    def test_all_terms_psd_projector_like(self, fixture_zoo):
        for name, (_, _, graph, tensors) in fixture_zoo.items():
            for t in range(graph.num_vertices + 1):
                h = assemble_step(graph, tensors, t)
                for term in h.terms:
                    m = term.matrix
                    assert np.abs(m - m.conj().T).max() <= 1e-10
                    eigs = np.linalg.eigvalsh(m)
                    assert eigs.min() >= -1e-9
                    if term.kind != "penalty":
                        # projector spectrum: eigenvalues in {0, 1}
                        assert np.all(
                            (np.abs(eigs) < 1e-9) | (np.abs(eigs - 1.0) < 1e-9)
                        )


class TestGroundAnalysis:
    def test_single_edge_initial_spectrum(self):
        g = InteractionGraph.build(2, [(0, 1)])
        tensors = [canonicalize(v, np.eye(2)) for v in range(2)]
        ga = ground_analysis(assemble_step(g, tensors, 0))
        assert abs(ga.lambda0) <= 1e-9
        assert ga.gap == pytest.approx(1.0, abs=1e-10)
        assert ga.ground_degeneracy == 1

    def test_disconnected_edges_gap_one(self):
        g = InteractionGraph.build(4, [(0, 1), (2, 3)])
        tensors = [canonicalize(v, np.eye(2)) for v in range(4)]
        ga = ground_analysis(assemble_step(g, tensors, 0))
        assert ga.gap == pytest.approx(1.0, abs=1e-10)
        assert ga.ground_degeneracy == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_ground_state_matches_oracle(self, seed):
        graph, tensors = random_instance(CHAIN3, 4.0, 50 + seed)
        for t in range(graph.num_vertices + 1):
            ga = ground_analysis(assemble_step(graph, tensors, t))
            target, _ = network.contract_partial(graph, tensors, t)
            assert abs(np.vdot(ga.ground_state, target)) ** 2 >= 1.0 - 1e-9
            assert ga.gap > 0

    def test_degenerate_kernel_rejected(self):
        g = InteractionGraph.build(2, [(0, 1)])
        term = LocalTerm(
            support=(0, 1), matrix=np.diag([0.0, 0.0, 1.0, 1.0]), kind="parent"
        )
        h = LocalHamiltonian(graph=g, step=1, terms=[term])
        with pytest.raises(DegenerateGroundSpaceError):
            ground_analysis(h)

    def test_missing_zero_energy_rejected(self):
        g = InteractionGraph.build(2, [(0, 1)])
        term = LocalTerm(support=(0, 1), matrix=np.eye(4), kind="parent")
        h = LocalHamiltonian(graph=g, step=0, terms=[term])
        with pytest.raises(NumericalFailureError):
            ground_analysis(h)


def _dense_free(h: LocalHamiltonian) -> bool:
    """Neither the dense matrix nor its eigensystem has been built."""
    return not {"global_matrix", "spectral"} & set(vars(h))


class TestMatrixFree:
    def test_apply_matches_global_matrix(self, fixture_zoo):
        rng = np.random.default_rng(5)
        for name, (_, _, graph, tensors) in fixture_zoo.items():
            dim = graph.global_dim
            for t in range(graph.num_vertices + 1):
                h = assemble_step(graph, tensors, t)
                x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                assert np.abs(h.apply(x) - h.global_matrix @ x).max() <= 1e-12, (name, t)

    def test_apply_keeps_nonzero_single_register_terms(self):
        graph, tensors = random_instance(CHAIN3, 2.0, 61)
        terms = list(assemble_step(graph, tensors, 2).terms)
        terms.append(penalty_term(1, np.diag([1.0, 0.0, 1.0, 0.0]), 3.0))
        h = LocalHamiltonian(graph=graph, step=2, terms=terms)
        x = np.random.default_rng(6).standard_normal(graph.global_dim) + 0j
        assert np.abs(h.apply(x) - h.global_matrix @ x).max() <= 1e-12

    def test_spectrum_matches_dense_oracle(self, fixture_zoo):
        # the certified contraction target and the searched ground state give
        # the same spectrum as the dense oracle and the same state
        for name, (_, _, graph, tensors) in fixture_zoo.items():
            for t in range(graph.num_vertices + 1):
                h = assemble_step(graph, tensors, t)
                target, _ = network.contract_partial(graph, tensors, t)
                searched = ground_analysis(h)
                certified = ground_analysis(h, kernel=target)
                assert _dense_free(h), (name, t)
                lam = h.spectral.eigenvalues
                for ga in (searched, certified):
                    assert ga.lambda0 == pytest.approx(lam[0], abs=1e-8), (name, t)
                    assert ga.lambda1 == pytest.approx(lam[1], abs=1e-8), (name, t)
                    assert ga.gap == pytest.approx(lam[1] - lam[0], abs=1e-8), (name, t)
                fid = abs(np.vdot(searched.ground_state, certified.ground_state)) ** 2
                assert fid >= 1.0 - 1e-9, (name, t)

    def test_two_fold_kernel_at_dim_64_rejected(self):
        # chain of 4 (register dims 2, 4, 4, 2): edge (0, 1) is penalized only
        # off span{|00>, |11>} of its bond pair, so the kernel is two-fold
        g = InteractionGraph.build(4, [(0, 1), (1, 2), (2, 3)])
        assert g.global_dim == 64
        loose = linalg.embed_term(np.diag([0.0, 1.0, 1.0, 0.0]), (0, 1), (2, 2, 2))
        terms = [LocalTerm(support=(0, 1), matrix=loose, kind="parent")]
        terms += [edge_term_on_registers(g, eid) for eid in (1, 2)]
        h = LocalHamiltonian(graph=g, step=1, terms=terms)
        with pytest.raises(DegenerateGroundSpaceError):
            ground_analysis(h)
        # the pair state is one of the two kernel vectors
        with pytest.raises(DegenerateGroundSpaceError):
            ground_analysis(h, kernel=network.pair_state(g))
        assert _dense_free(h)
        assert np.count_nonzero(h.spectral.eigenvalues < 1e-9) == 2

    def test_solver_failure_is_a_numerical_failure(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0)))

        monkeypatch.setattr(hamiltonian, "eigs", no_convergence)
        graph, tensors = random_instance(CHAIN3, 2.0, 62)
        with pytest.raises(NumericalFailureError):
            ground_analysis(assemble_step(graph, tensors, 1))

    def test_driver_builds_no_dense_matrix(self, fixture_zoo):
        cfg, _, graph, tensors = fixture_zoo["grid2x2"]
        prep = PreparedInstance(graph, tensors, c=cfg.c, zero_tol=cfg.zero_tol)
        run_algorithm(prep, cfg.eps, seed=3)
        repair_loop_trials(prep, 1, 5, 20, seed=4)
        assert all(_dense_free(h) for h in prep.hamiltonians)


class TestCertifiedKernel:
    def test_preparation_runs_one_solve_per_step(self, monkeypatch, fixture_zoo):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return eigs(*args, **kwargs)

        monkeypatch.setattr(hamiltonian, "eigs", counted)
        for name, (cfg, _, graph, tensors) in fixture_zoo.items():
            calls.clear()
            PreparedInstance(graph, tensors, c=cfg.c, zero_tol=cfg.zero_tol)
            assert len(calls) == graph.num_vertices + 1, name

    def test_next_target_is_not_certified(self, prepared_zoo):
        checked = 0
        for name, prep in prepared_zoo.items():
            for t, overlap in enumerate(prep.overlaps):
                if overlap > 1.0 - 1e-6:
                    continue  # the vertex map leaves the target unchanged
                with pytest.raises(NumericalFailureError):
                    ground_analysis(prep.hamiltonians[t], kernel=prep.targets[t + 1])
                checked += 1
        assert checked > 0

    def test_loose_certificate_rejected(self):
        graph, tensors = random_instance(CHAIN3, 3.0, 63)
        h = assemble_step(graph, tensors, 2)
        target, _ = network.contract_partial(graph, tensors, 2)
        noise = random_complex(graph.global_dim, 1, np.random.default_rng(8))[:, 0]
        kernel = target + 1e-3 * noise / np.linalg.norm(noise)
        # the residual (~1e-3) passes zero_tol = 1e-2, but bounds 1 - fidelity
        # only by ~(1e-3 / gap)^2, far above the certified 1e-9
        assert 1e-4 < np.linalg.norm(h.apply(kernel)) < 1e-2
        with pytest.raises(NumericalFailureError, match="infidelity"):
            ground_analysis(h, zero_tol=1e-2, kernel=kernel)


class TestHamiltonianExport:
    def test_terms_to_json_shape(self):
        graph, tensors = random_instance(CHAIN2, 2.0, 60)
        h = assemble_step(graph, tensors, 1)
        doc = terms_to_json(h)
        assert len(doc) == len(h.terms)
        first = doc[0]
        assert set(first) == {"support", "kind", "matrix"}
        dim = len(first["matrix"])
        assert len(first["matrix"][0]) == dim
        assert len(first["matrix"][0][0]) == 2
        rebuilt = np.array(
            [[complex(re, im) for re, im in row] for row in first["matrix"]]
        )
        assert np.abs(rebuilt - h.terms[0].matrix).max() == 0.0

    def test_pair_state_is_initial_ground_state(self, fixture_zoo):
        _, _, graph, tensors = fixture_zoo["grid2x2"]
        h0 = assemble_step(graph, tensors, 0)
        state = network.pair_state(graph)
        assert np.linalg.norm(h0.apply(state)) <= 1e-12
        ga = ground_analysis(h0)
        assert abs(np.vdot(ga.ground_state, state)) ** 2 >= 1.0 - 1e-10
