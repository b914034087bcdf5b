"""Term construction, step assembly bookkeeping, spectral analysis."""

from __future__ import annotations

import math

import numpy as np
import pytest

from scipy.sparse.linalg import LinearOperator, eigs

from _helpers import CHAIN2, CHAIN3, RING4, kernel_basis, random_complex, random_instance
from peps_forge import hamiltonian, linalg, network
from peps_forge.dynamics import PreparedInstance, repair_loop_trials, run_algorithm
from peps_forge.errors import (
    ConditioningError,
    DegenerateGroundSpaceError,
    InvalidInputError,
    NumericalFailureError,
)
from peps_forge.hamiltonian import (
    GAP_RESIDUAL_TOL,
    KRYLOV_BASIS,
    KRYLOV_TOL,
    START_NOISE,
    LocalHamiltonian,
    LocalTerm,
    assemble_step,
    edge_term,
    edge_term_on_registers,
    ground_analysis,
    parent_term,
    terms_to_json,
)
from peps_forge.harness import GraphSpec, random_tensors, topology_edges
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


class TestLocalTerm:
    @pytest.mark.parametrize(
        "support, kind",
        [((0, 1), "penalty"), ((0,), "parent"), ((1, 0), "parent"), ((0, 0), "parent")],
        ids=["penalty-kind", "one-register", "descending", "repeated"],
    )
    def test_rejects_anything_but_an_edge_projector(self, support, kind):
        with pytest.raises(InvalidInputError):
            LocalTerm(support=support, matrix=np.eye(4), kind=kind)


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
        # the image has one dimension per index of the two registers' other
        # factors, r_u r_v / d^2; the term projects onto the rest
        graph, tensors = random_instance(RING4, 3.0, 12)
        cases = [(graph, tensors, 0, frozenset({0, 1}))]
        for graph, tensors in _mixed_bond_instances():
            for t in range(graph.num_vertices + 1):
                processed = frozenset(graph.order[:t])
                cases += [(graph, tensors, eid, processed) for eid in range(len(graph.edges))]
        for graph, tensors, eid, processed in cases:
            m = parent_term(graph, tensors, eid, processed).matrix
            assert np.abs(m @ m - m).max() <= 1e-9
            eigs = np.linalg.eigvalsh(m)
            u, v = graph.edges[eid]
            pair = graph.register_dim(u) * graph.register_dim(v)
            assert int(np.sum(eigs > 0.5)) == pair - pair // graph.bond_dims[eid] ** 2

    def test_annihilates_every_later_prefix(self):
        graph, tensors = random_instance(CHAIN3, 3.0, 13)
        # edge (0,1) fully processed after two steps of the natural order
        term = parent_term(graph, tensors, 0, frozenset({0, 1}))
        embedded = linalg.embed_term(term.matrix, term.support, graph.register_dims)
        for prefix in (2, 3):
            state, _ = network.contract_partial(graph, tensors, prefix)
            assert np.linalg.norm(embedded @ state) <= 1e-10
        # on mixed bonds: every term annihilates its step's target, and a
        # parent term every later one too
        for graph, tensors in _mixed_bond_instances():
            n = graph.num_vertices
            targets = [network.contract_partial(graph, tensors, t)[0] for t in range(n + 1)]
            for t in range(n + 1):
                for eid in range(len(graph.edges)):
                    term = parent_term(graph, tensors, eid, frozenset(graph.order[:t]))
                    h = LocalHamiltonian(graph, t, [term])
                    later = targets[t:] if term.kind == "parent" else targets[t : t + 1]
                    for state in later:
                        assert np.linalg.norm(h.apply(state)) <= 1e-10

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

    @pytest.mark.parametrize("scale, accepted", [(2e-6, True), (5e-7, False)])
    def test_conditioning_boundary(self, scale, accepted):
        # the chain above with spectator scale s has Gram condition exactly
        # 1 / s^2: 2.5e11 builds a term, 4e12 exceeds GRAM_COND_LIMIT
        g = InteractionGraph.build(3, [(0, 1), (1, 2)])
        tensors = [
            canonicalize(0, np.eye(2)),
            canonicalize(1, np.diag([1.0, scale, 1.0, scale])),
            canonicalize(2, np.eye(2)),
        ]
        assert (scale**-2 < hamiltonian.GRAM_COND_LIMIT) == accepted
        if not accepted:
            with pytest.raises(ConditioningError, match="ill-conditioned"):
                parent_term(g, tensors, 0, frozenset({0, 1}))
            return
        term = parent_term(g, tensors, 0, frozenset({0, 1}))
        assert np.abs(term.matrix @ term.matrix - term.matrix).max() <= 1e-12
        # the target after vertex 1, the step that processes the edge
        state, _ = network.contract_partial(g, tensors, 2)
        embedded = linalg.embed_term(term.matrix, term.support, g.register_dims)
        assert np.linalg.norm(embedded @ state) <= 1e-10 * np.linalg.norm(state)


def _mixed_bond_instances() -> list[tuple[InteractionGraph, list]]:
    """A star whose centre register interleaves bonds 3, 2, 2 against the
    edge order, and a ring4 with bonds 2, 3, 2, 3, each with random maps."""
    graphs = [
        InteractionGraph.build(4, [(1, 2), (0, 1), (1, 3)], bond_dim=[2, 3, 2]),
        InteractionGraph.build(4, [(0, 1), (1, 2), (2, 3), (0, 3)], bond_dim=[2, 3, 2, 3]),
    ]
    return [(g, random_tensors(g, 3.0, 15)) for g in graphs]


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
        p0 = kernel_basis(h0.spectral)
        p3 = kernel_basis(h_final.spectral)
        assert p0.shape == p3.shape
        overlap = np.abs(p0.conj().T @ p3)
        assert overlap.max() >= 1.0 - 1e-10

    def test_first_step_replaces_only_touching_terms(self):
        graph, tensors = random_instance(CHAIN3, 3.0, 41)
        h0 = assemble_step(graph, tensors, 0)
        h1 = assemble_step(graph, tensors, 1)
        # vertex 0 processed: edge (0,1) becomes a boundary term,
        # edge (1,2) keeps its pair term, and no other term appears
        by_support_0 = {t.support: t for t in h0.terms}
        by_support_1 = {t.support: t for t in h1.terms}
        assert list(by_support_1) == [(0, 1), (1, 2)]
        assert by_support_1[(0, 1)].kind == "boundary"
        assert by_support_1[(1, 2)].kind == "edge_pair"
        assert np.abs(
            by_support_1[(1, 2)].matrix - by_support_0[(1, 2)].matrix
        ).max() == 0.0

    def test_one_term_per_edge_at_every_step(self):
        graph, tensors = random_instance(RING4, 2.0, 42)
        for t in range(5):
            h = assemble_step(graph, tensors, t)
            assert [term.support for term in h.terms] == sorted(graph.edges)
            assert h.step == t

    def test_custom_order_bookkeeping(self):
        graph, tensors = random_instance(CHAIN3, 2.0, 45, order=(2, 0, 1))
        h1 = assemble_step(graph, tensors, 1)
        kinds = {t.support: t.kind for t in h1.terms}
        assert kinds == {(0, 1): "edge_pair", (1, 2): "boundary"}

    def test_all_terms_psd_projector_like(self, fixture_zoo):
        for name, (_, _, graph, tensors) in fixture_zoo.items():
            for t in range(graph.num_vertices + 1):
                h = assemble_step(graph, tensors, t)
                assert len(h.terms) == len(graph.edges), (name, t)
                for term in h.terms:
                    m = term.matrix
                    assert np.abs(m - m.conj().T).max() <= 1e-10
                    # projector spectrum: eigenvalues in {0, 1}
                    eigs = np.linalg.eigvalsh(m)
                    assert np.all((np.abs(eigs) < 1e-9) | (np.abs(eigs - 1.0) < 1e-9))


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

    def test_apply_on_mixed_bonds_and_restricted(self):
        # registers of unequal bond sizes, supports out of edge order and the
        # smaller layouts of the restricted Hamiltonians
        rng = np.random.default_rng(6)
        checked = 0
        for graph, tensors in _mixed_bond_instances():
            for t in range(graph.num_vertices + 1):
                h = assemble_step(graph, tensors, t)
                ops = [h]
                if 0 < len(h.pair_edges) < len(graph.edges):
                    ops.append(h.restricted)
                for op in ops:
                    x = random_complex(op.graph.global_dim, 1, rng)[:, 0]
                    assert np.abs(op.apply(x) - op.global_matrix @ x).max() <= 1e-12, t
                    checked += 1
        assert checked > 10

    def test_apply_rejects_a_state_of_another_dimension(self):
        graph, tensors = random_instance(CHAIN3, 2.0, 61)
        h = assemble_step(graph, tensors, 1)
        for dim in (graph.global_dim - 1, graph.global_dim + 1):
            with pytest.raises(ValueError):
                h.apply(np.ones(dim, dtype=complex))

    def test_spectrum_matches_dense_oracle(self, solved_steps):
        # the certified contraction target and the searched ground state give
        # the same spectrum as the dense oracle and the same state
        for name, steps in solved_steps.items():
            for t, step in enumerate(steps):
                h, searched = step.hamiltonian, step.searched
                certified = ground_analysis(h, kernel=step.target)
                assert _dense_free(h), (name, t)
                lam = step.eigenvalues
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
        # a product budget below the first stopping test runs out
        monkeypatch.setattr(hamiltonian, "KRYLOV_MAX_PRODUCTS", 3)
        graph, tensors = random_instance(CHAIN3, 2.0, 62)
        with pytest.raises(NumericalFailureError, match="did not converge"):
            ground_analysis(assemble_step(graph, tensors, 1))

    def test_driver_builds_no_dense_matrix(self, fixture_zoo):
        cfg, _, graph, tensors = fixture_zoo["grid2x2"]
        prep = PreparedInstance(graph, tensors, zero_tol=cfg.zero_tol)
        run_algorithm(prep, cfg.eps, seed=3)
        repair_loop_trials(prep, 1, 5, 20, seed=4)
        assert all(_dense_free(h) for h in prep.hamiltonians)


RING5 = GraphSpec(topology="ring", length=5)


@pytest.fixture(scope="module")
def ring5_prepared():
    """Two random ring5 preparations (dim 1024)."""
    return [PreparedInstance(*random_instance(RING5, 2.0, seed)) for seed in (71, 72)]


@pytest.fixture(scope="module")
def two_component_prepared():
    """chain3 + chain3 and chain3 + ring3 preparations (dims 256 and 1024)
    in which the lowest excitation moves from one component to the other
    between steps."""
    chains = GraphSpec(topology="custom", num_vertices=6, edges=((0, 1), (1, 2), (3, 4), (4, 5)))
    chain_ring = GraphSpec(
        topology="custom", num_vertices=6, edges=((0, 1), (1, 2), (3, 4), (3, 5), (4, 5))
    )
    cases = [(chains, 8), (chain_ring, 4), (chain_ring, 7)]
    return [PreparedInstance(*random_instance(spec, 3.0, seed)) for spec, seed in cases]


class TestCertifiedKernel:
    def test_preparation_runs_one_solve_per_step(self, monkeypatch, fixture_zoo):
        calls, starts = [], []
        solve, start_vector = hamiltonian._lowest_eigenpair, hamiltonian._start_vector

        def recorded(dim, matvec, start=None, lock=None):
            calls.append((dim, lock))
            return solve(dim, matvec, start, lock)

        def recorded_start(dim, start=None):
            v0 = start_vector(dim, start)
            starts.append(v0.copy())  # the solve orthogonalises it in place
            return v0

        monkeypatch.setattr(hamiltonian, "_lowest_eigenpair", recorded)
        monkeypatch.setattr(hamiltonian, "_start_vector", recorded_start)
        for name, (cfg, _, graph, tensors) in fixture_zoo.items():
            calls.clear()
            starts.clear()
            prep = PreparedInstance(graph, tensors, zero_tol=cfg.zero_tol)
            # step 0 has only pair edges and no solve; every later step one
            assert len(calls) == len(starts) == graph.num_vertices, name
            # step 1 starts from the fixed random vector of the solved
            # dimension alone; every later solve starts, before the lock is
            # applied, from the previous excitation restricted to the step's
            # solved slots, plus START_NOISE times that vector normalised; each
            # is locked on the restricted target
            for t, ((dim, lock), v0) in enumerate(zip(calls, starts), start=1):
                pairs = prep.hamiltonians[t].pair_edges
                noise = np.random.default_rng(0).standard_normal(dim)
                if t == 1:
                    assert prep.analyses[0].excited_state is None, name
                    np.testing.assert_array_equal(v0, noise)
                else:
                    excited = prep.analyses[t - 1].excited_state
                    warm = network.pair_slots(graph, pairs).restrict(excited)
                    assert np.linalg.norm(warm) == pytest.approx(1.0, abs=1e-12), (name, t)
                    warm = warm + START_NOISE * noise / np.linalg.norm(noise)
                    np.testing.assert_allclose(v0, warm, rtol=0, atol=1e-15)
                phi = network.pair_slots(graph, pairs).restrict(prep.targets[t])
                np.testing.assert_allclose(lock, phi / np.linalg.norm(phi), rtol=0, atol=1e-15)

    def test_start_that_excites_a_pair_edge_is_dropped(self, monkeypatch):
        # at step 2 of two disjoint edges, edge (2, 3) still holds its pair;
        # a start that excites that pair has no weight on the solved slots
        g = InteractionGraph.build(4, [(0, 1), (2, 3)])
        tensors = random_tensors(g, 3.0, 5)
        h = assemble_step(g, tensors, 2)
        assert h.pair_edges == (1,)
        psi, _ = network.contract_partial(g, tensors, 2)
        excited, _ = network.apply_on_register(np.diag([1.0, -1.0]), 2, psi, g.register_dims)
        starts = []
        start_vector = hamiltonian._start_vector

        def recorded(dim, start=None):
            v0 = start_vector(dim, start)
            starts.append(v0.copy())  # the solve orthogonalises it in place
            return v0

        monkeypatch.setattr(hamiltonian, "_start_vector", recorded)
        warm = ground_analysis(h, kernel=psi, start=excited)
        cold = ground_analysis(h, kernel=psi)
        np.testing.assert_array_equal(starts[0], starts[1])
        assert warm.lambda1 == cold.lambda1

    def test_pair_slots_built_once_per_solved_step(self, monkeypatch, fixture_zoo):
        # the target, the warm start and the Ritz vector of a step cross its
        # pair edges through one index; step 0 (only pairs) solves nothing
        # and a step with no pair edge needs none
        built = []
        slots = hamiltonian.pair_slots

        def counted(g, edges):
            built.append(edges)
            return slots(g, edges)

        monkeypatch.setattr(hamiltonian, "pair_slots", counted)
        for name, (cfg, _, graph, tensors) in fixture_zoo.items():
            built.clear()
            prep = PreparedInstance(graph, tensors, zero_tol=cfg.zero_tol)
            edges = len(graph.edges)
            solved = [h.pair_edges for h in prep.hamiltonians if 0 < len(h.pair_edges) < edges]
            assert built == solved, name
            assert len(solved) == (0 if edges == 1 else graph.num_vertices - 2), name

    def test_every_solve_product_goes_through_apply(self, monkeypatch):
        # one LocalHamiltonian.apply, and so one scipy zgemm per term, per
        # Lanczos product, plus the residual product of each step
        counts = {"apply": 0, "matvec": 0}
        apply, solve = LocalHamiltonian.apply, hamiltonian._lowest_eigenpair

        def counted_apply(self, x):
            counts["apply"] += 1
            return apply(self, x)

        def counted_solve(dim, matvec, start=None, lock=None):
            def counted(x):
                counts["matvec"] += 1
                return matvec(x)

            return solve(dim, counted, start, lock)

        monkeypatch.setattr(LocalHamiltonian, "apply", counted_apply)
        monkeypatch.setattr(hamiltonian, "_lowest_eigenpair", counted_solve)
        graph, tensors = random_instance(RING5, 2.0, 71)
        PreparedInstance(graph, tensors)
        assert counts["matvec"] > 0
        assert counts["apply"] == counts["matvec"] + graph.num_vertices + 1

    def test_warm_start_gives_the_cold_gap(
        self, prepared_zoo, ring5_prepared, two_component_prepared
    ):
        for prep in [*prepared_zoo.values(), *ring5_prepared, *two_component_prepared]:
            for t, (h, warm) in enumerate(zip(prep.hamiltonians, prep.analyses)):
                cold = ground_analysis(h, zero_tol=prep.zero_tol, kernel=prep.targets[t])
                assert warm.lambda1 == pytest.approx(cold.lambda1, abs=1e-12), t
                assert warm.gap == pytest.approx(cold.gap, abs=1e-12), t

    @pytest.mark.parametrize("seed", range(5))
    def test_warm_start_inside_one_component_finds_the_other(self, seed):
        # H = H_A (x) 1 + 1 (x) H_B on two disjoint edges of bond dimension
        # 2 and 8; a start e_A (x) b spans, with H, an invariant subspace
        # of dimension 64 that misses the lowest excitation g_A (x) e_B,
        # which only roundoff (or the random part of the start) can reach
        rng = np.random.default_rng(seed)

        def psd_with_levels(n, first):
            q = np.linalg.qr(random_complex(n, n, rng))[0]
            levels = np.concatenate([[0.0, first], rng.uniform(1.0, 3.0, n - 2)])
            return (q * levels) @ q.conj().T, q

        h_a, q_a = psd_with_levels(4, 0.9)
        h_b, q_b = psd_with_levels(64, 0.4)
        g = InteractionGraph.build(4, [(0, 1), (2, 3)], bond_dim=[2, 8])
        h = LocalHamiltonian(
            graph=g,
            step=4,
            terms=[
                LocalTerm(support=(0, 1), matrix=h_a, kind="parent"),
                LocalTerm(support=(2, 3), matrix=h_b, kind="parent"),
            ],
        )
        kernel = np.kron(q_a[:, 0], q_b[:, 0])
        b = random_complex(64, 1, rng)[:, 0]
        start = np.kron(q_a[:, 1], b / np.linalg.norm(b))
        for ga in (
            ground_analysis(h, kernel=kernel),
            ground_analysis(h, kernel=kernel, start=start),
        ):
            assert ga.lambda1 == pytest.approx(0.4, abs=1e-12)

    def test_excited_state_is_the_lambda1_ritz_vector(self, prepared_zoo, ring5_prepared):
        for prep in [*prepared_zoo.values(), *ring5_prepared]:
            # an eigenvector of H, of energy lambda1 unless the free pairs
            # set lambda1 = 1; None only where nothing was solved (step 0)
            for h, a in zip(prep.hamiltonians, prep.analyses):
                e = a.excited_state
                if len(h.pair_edges) == len(prep.graph.edges):
                    assert e is None
                    continue
                assert np.linalg.norm(e) == pytest.approx(1.0, abs=1e-12)
                assert abs(np.vdot(a.ground_state, e)) <= 1e-8
                he = h.apply(e)
                theta = np.vdot(e, he).real
                assert np.linalg.norm(he - theta * e) <= 1e-8
                if a.lambda1 < 1.0:
                    assert theta == pytest.approx(a.lambda1, abs=1e-10)

    def test_two_fold_kernel_rejected_from_a_warm_start(self):
        # the dim-64 two-fold kernel of TestMatrixFree, with the gap solve
        # started from the excitation of the neighbouring step 0
        g = InteractionGraph.build(4, [(0, 1), (1, 2), (2, 3)])
        pair = network.pair_state(g)
        h0 = LocalHamiltonian(
            graph=g, step=0, terms=[edge_term_on_registers(g, eid) for eid in range(3)]
        )
        start = ground_analysis(h0, kernel=pair).excited_state
        loose = linalg.embed_term(np.diag([0.0, 1.0, 1.0, 0.0]), (0, 1), (2, 2, 2))
        terms = [LocalTerm(support=(0, 1), matrix=loose, kind="parent")]
        terms += [edge_term_on_registers(g, eid) for eid in (1, 2)]
        h1 = LocalHamiltonian(graph=g, step=1, terms=terms)
        with pytest.raises(DegenerateGroundSpaceError):
            ground_analysis(h1, kernel=pair, start=start)

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


def _arpack_lambda1(op: LocalHamiltonian, phi: np.ndarray) -> float:
    """Lowest eigenvalue of ``op`` off the unit vector ``phi``: ARPACK on the
    shifted operator ``(1 - P) H (1 - P) + s P``, ``P = |phi><phi|``,
    ``s = 1 + sum ||term||_2 > ||H||``, stopped at :data:`KRYLOV_TOL`."""
    s = 1.0 + sum(np.linalg.norm(term.matrix, 2) for term in op.terms)

    def deflated(x):
        c = np.vdot(phi, x)
        y = op.apply(x - c * phi)
        return y - np.vdot(phi, y) * phi + (s * c) * phi

    dim = len(phi)
    v0 = np.random.default_rng(0).standard_normal(dim).astype(complex)
    w, _ = eigs(
        LinearOperator((dim, dim), matvec=deflated, dtype=complex),
        k=1, which="SR", v0=v0, tol=KRYLOV_TOL, rng=np.random.default_rng(0),
    )
    return float(w[0].real)


def _solved(prep: PreparedInstance, t: int) -> tuple[LocalHamiltonian, np.ndarray]:
    """The operator that step ``t``'s gap solve runs on, and its unit lock."""
    h = prep.hamiltonians[t]
    phi = network.pair_slots(prep.graph, h.pair_edges).restrict(prep.targets[t])
    return (h.restricted if h.pair_edges else h), phi / np.linalg.norm(phi)


def _gapped_steps(preps):
    """(preparation, step) for every step with a gap solve."""
    return [
        (prep, t)
        for prep in preps
        for t, h in enumerate(prep.hamiltonians)
        if len(h.pair_edges) < len(prep.graph.edges)
    ]


class TestLanczos:
    """The in-library Lanczos solve against ARPACK, and its restart and
    breakdown paths."""

    def test_lambda1_matches_arpack_on_the_shifted_operator(
        self, prepared_zoo, ring5_prepared, two_component_prepared
    ):
        steps = _gapped_steps([*prepared_zoo.values(), *ring5_prepared, *two_component_prepared])
        for prep, t in steps:
            op, phi = _solved(prep, t)
            oracle = _arpack_lambda1(op, phi)
            expected = min(oracle, 1.0) if prep.hamiltonians[t].pair_edges else oracle
            assert prep.analyses[t].lambda1 == pytest.approx(expected, abs=1e-12), t
            lam, v = hamiltonian._lowest_eigenpair(len(phi), op.apply, lock=phi)
            assert lam == pytest.approx(oracle, abs=1e-12), t
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
            assert abs(np.vdot(phi, v)) <= 1e-12, t

    def test_restarts_from_the_ritz_vector_give_the_same_lambda1(
        self, monkeypatch, ring5_prepared, two_component_prepared
    ):
        monkeypatch.setattr(hamiltonian, "KRYLOV_BASIS", 8)
        products = []
        solve = hamiltonian._lowest_eigenpair

        def counted(dim, matvec, start=None, lock=None):
            products.append(0)

            def product(x):
                products[-1] += 1
                return matvec(x)

            return solve(dim, product, start, lock)

        monkeypatch.setattr(hamiltonian, "_lowest_eigenpair", counted)
        for prep, t in _gapped_steps([*ring5_prepared, *two_component_prepared]):
            a = ground_analysis(
                prep.hamiltonians[t],
                zero_tol=prep.zero_tol,
                kernel=prep.targets[t],
                start=prep.analyses[t - 1].excited_state,
            )
            assert a.lambda1 == pytest.approx(prep.analyses[t].lambda1, abs=1e-12), t
        assert max(products) > 8  # some solves restarted

    def test_gap_solves_stop_before_the_oracle_tolerance(self, monkeypatch):
        # a gap solve stops at an absolute residual of GAP_RESIDUAL_TOL, not
        # at the oracle's KRYLOV_TOL; every gap stays where the tighter stop
        # puts it, and every excited state an eigenvector to 1e-8
        products = [0]
        apply = LocalHamiltonian.apply

        def counted(h, x):
            products[0] += 1
            return apply(h, x)

        monkeypatch.setattr(LocalHamiltonian, "apply", counted)
        graph, tensors = random_instance(RING5, 2.0, 71)
        shipped = PreparedInstance(graph, tensors)
        shipped_products, products[0] = products[0], 0
        monkeypatch.setattr(hamiltonian, "GAP_RESIDUAL_TOL", KRYLOV_TOL)
        tight = PreparedInstance(graph, tensors)
        assert shipped_products < products[0]
        assert shipped.gaps == pytest.approx(tight.gaps, abs=1e-12)
        for h, a in zip(shipped.hamiltonians[1:], shipped.analyses[1:]):
            he = apply(h, a.excited_state)
            residual = he - np.vdot(a.excited_state, he).real * a.excited_state
            assert np.linalg.norm(residual) <= 1e-8

    def test_scheduled_stops_meet_their_tolerance_no_earlier(self, monkeypatch, fixture_zoo):
        # every gap solve of the fixtures and of ring5 tensor seeds 0-3, run
        # again on the same inputs with a Ritz test after every product
        # (RITZ_SKIP = 0): the Krylov vectors do not depend on the tests, so
        # the scheduled stop comes no earlier, never before min(20, dim - 1)
        # products, and finds the same lambda1; the stopped Ritz vector's
        # residual is within GAP_RESIDUAL_TOL, up to the rounding of the
        # products that recompute it (1e-13)
        solves = []
        solve = hamiltonian._lowest_eigenpair

        def counted(dim, matvec, start=None, lock=None):
            products = [0]

            def product(x):
                products[0] += 1
                return matvec(x)

            theta, v = solve(dim, product, start, lock)
            return theta, v, products[0]

        def recorded(dim, matvec, start=None, lock=None):
            theta, v, products = counted(dim, matvec, start, lock)
            solves.append(((dim, matvec, start, lock), theta, v, products))
            return theta, v

        monkeypatch.setattr(hamiltonian, "_lowest_eigenpair", recorded)
        instances = [(g, ts, cfg.zero_tol) for cfg, _, g, ts in fixture_zoo.values()]
        instances += [(*random_instance(RING5, 2.0, seed), 1e-9) for seed in range(4)]
        scheduled = [PreparedInstance(g, ts, zero_tol=tol) for g, ts, tol in instances]
        monkeypatch.setattr(hamiltonian, "_lowest_eigenpair", solve)
        monkeypatch.setattr(hamiltonian, "RITZ_SKIP", 0.0)
        tested_later = 0
        for args, theta, v, products in solves:
            dim, matvec, _, lock = args
            residual = np.linalg.norm(matvec(v) - theta * v)
            assert residual <= GAP_RESIDUAL_TOL + 1e-13, (dim, residual)
            assert abs(np.vdot(lock, v)) <= 1e-12
            every_theta, _, every_products = counted(*args)
            assert products >= every_products >= min(20, dim - 1), dim
            assert theta == pytest.approx(every_theta, abs=1e-13), dim
            tested_later += products > every_products
        assert tested_later  # some stops moved
        for (g, ts, tol), prep in zip(instances, scheduled):
            every = PreparedInstance(g, ts, zero_tol=tol)
            assert prep.gaps == pytest.approx(every.gaps, abs=1e-13)

    def test_fresh_vectors_follow_the_start_draw(self):
        # the start's fixed vector is built once per dimension, read-only;
        # a breakdown goes on from the same generator's next draws
        rng = np.random.default_rng(0)
        draws = [rng.standard_normal(40) for _ in range(3)]
        fixed = hamiltonian._fixed_draw(40)
        assert hamiltonian._fixed_draw(40) is fixed and not fixed.flags.writeable
        np.testing.assert_array_equal(fixed, draws[0])
        fresh = hamiltonian._fresh_vectors(40)
        np.testing.assert_array_equal(next(fresh), draws[1])
        np.testing.assert_array_equal(next(fresh), draws[2])

    # at 40 the basis can exhaust the space and is fully reorthogonalised;
    # at 200 the solve keeps the three-term recurrence and the lock alone
    @pytest.mark.parametrize("dim", [40, 200])
    def test_clustered_levels(self, dim):
        # two levels 1e-7 apart above the locked level 0: the stop must still
        # land within 1e-8 of the lower one
        rng = np.random.default_rng(9)
        levels = np.concatenate([[0.0, 0.3, 0.3 + 1e-7], rng.uniform(1.0, 3.0, dim - 3)])
        lock = np.eye(dim, dtype=complex)[0]
        theta, v = hamiltonian._lowest_eigenpair(dim, lambda x: levels * x, lock=lock)
        assert theta == pytest.approx(0.3, abs=1e-8)
        assert abs(np.vdot(lock, v)) <= 1e-12

    @pytest.mark.parametrize("dim", [40, 200])
    @pytest.mark.parametrize("locked", [False, True])
    def test_start_inside_an_invariant_subspace(self, monkeypatch, locked, dim):
        # without the random part, an eigenvector start breaks down at once:
        # its residual is exactly zero, and the solve goes on from fresh
        # vectors of the fixed generator
        monkeypatch.setattr(hamiltonian, "START_NOISE", 0.0)
        levels = np.concatenate([[0.2, 0.5], np.random.default_rng(3).uniform(1.0, 3.0, dim - 2)])
        eye = np.eye(dim, dtype=complex)
        lock = eye[0] if locked else None
        lam, v = hamiltonian._lowest_eigenpair(dim, lambda x: levels * x, eye[dim - 1], lock)
        assert lam == pytest.approx(levels[int(locked)], abs=1e-12)
        assert abs(v[int(locked)]) == pytest.approx(1.0, abs=1e-10)
        if locked:
            assert abs(np.vdot(lock, v)) <= 1e-12

    @pytest.mark.parametrize("dim", [40, 200])
    def test_full_reorthogonalisation_only_where_the_space_can_be_exhausted(
        self, monkeypatch, dim
    ):
        # a basis that can exhaust the space (dim - 1 <= KRYLOV_BASIS) is
        # orthogonalised against itself by two zgemv calls per product; a
        # larger locked solve with no breakdown and no restart calls zgemv
        # once, for the Ritz vector, and projects out the lock alone
        from scipy.linalg import blas

        calls, products = [0], [0]
        zgemv = blas.zgemv

        def counted_zgemv(*args, **kwargs):
            calls[0] += 1
            return zgemv(*args, **kwargs)

        def product(x):
            products[0] += 1
            return levels * x

        monkeypatch.setattr(blas, "zgemv", counted_zgemv)
        levels = np.concatenate([[0.0, 0.3], np.random.default_rng(5).uniform(1.0, 3.0, dim - 2)])
        lock = np.eye(dim, dtype=complex)[0]
        theta, v = hamiltonian._lowest_eigenpair(dim, product, lock=lock)
        assert theta == pytest.approx(0.3, abs=1e-12)
        assert abs(np.vdot(lock, v)) <= 1e-12
        assert products[0] < KRYLOV_BASIS  # no restart
        if dim - 1 <= KRYLOV_BASIS:
            assert calls[0] >= 2 * products[0] + 1
        else:
            assert calls[0] == 1


class TestTermCache:
    def test_each_edge_form_is_built_once(self, monkeypatch, fixture_zoo):
        # an edge's term depends only on its processed endpoints: three
        # forms per edge, 15 on ring5 and 12 on grid2x2, against (n + 1)|E|
        # from scratch; each step's terms equal the from-scratch ones
        built = []
        parent = hamiltonian.parent_term

        def counted(g, tensors, edge_id, processed):
            built.append(edge_id)
            return parent(g, tensors, edge_id, processed)

        monkeypatch.setattr(hamiltonian, "parent_term", counted)
        _, _, grid, grid_tensors = fixture_zoo["grid2x2"]
        cases = [(random_instance(RING5, 2.0, 71), 15), ((grid, grid_tensors), 12)]
        for (graph, tensors), forms in cases:
            built.clear()
            prep = PreparedInstance(graph, tensors)
            assert len(built) == forms
            assert sorted(built) == sorted(3 * list(range(len(graph.edges))))
            for t, h in enumerate(prep.hamiltonians):
                oracle = assemble_step(graph, tensors, t)
                assert h.pair_edges == oracle.pair_edges, t
                assert len(h.terms) == len(oracle.terms), t
                for term, fresh in zip(h.terms, oracle.terms):
                    assert (term.support, term.kind) == (fresh.support, fresh.kind), t
                    assert np.array_equal(term.matrix, fresh.matrix), t

    def test_pair_forms_need_no_svd(self, monkeypatch, fixture_zoo):
        # a form with both ends unprocessed has the orthonormal image
        # omega (x) 1 and is built without an SVD; a boundary form needs one
        calls = []
        svd = linalg.svd

        def counted(m):
            calls.append(m.shape)
            return svd(m)

        monkeypatch.setattr(linalg, "svd", counted)
        for name, (_, _, graph, tensors) in fixture_zoo.items():
            for eid, (u, _) in enumerate(graph.edges):
                calls.clear()
                pair = parent_term(graph, tensors, eid, frozenset())
                assert calls == [] and pair.kind == "edge_pair", (name, eid)
                direct = edge_term_on_registers(graph, eid).matrix
                assert np.abs(pair.matrix - direct).max() <= 1e-15, (name, eid)
                parent_term(graph, tensors, eid, frozenset({u}))
                assert len(calls) == 1, (name, eid)


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


def _dense(h: LocalHamiltonian) -> np.ndarray:
    """The dense oracle matrix of ``h``, built on a copy so that ``h`` caches nothing."""
    return LocalHamiltonian(h.graph, h.step, list(h.terms)).global_matrix


def _check_restriction(graph, hamiltonians, targets):
    """Restricted terms and targets against the full ones at every step."""
    for t, (h, psi) in enumerate(zip(hamiltonians, targets)):
        processed = set(graph.order[:t])
        pairs = tuple(e for e, edge in enumerate(graph.edges) if processed.isdisjoint(edge))
        assert h.pair_edges == pairs, t
        slots = network.pair_slots(graph, pairs)
        back = slots.expand(slots.restrict(psi))
        assert np.abs(back - psi).max() <= 1e-14, t
        if not 0 < len(pairs) < len(graph.edges):
            continue
        full = {term.support: term for term in h.terms}
        assert len(h.restricted.terms) == len(full) - len(pairs), t
        for term in h.restricted.terms:
            # embedded back with identities on the pair edges' slots
            slots = [e for v in term.support for e in graph.incident_edges(v)]
            kept = [i for i, e in enumerate(slots) if e not in pairs]
            dims = [graph.bond_dims[e] for e in slots]
            embedded = linalg.embed_term(term.matrix, kept, dims)
            assert np.abs(embedded - full[term.support].matrix).max() <= 1e-14, (t, term.support)
            assert term.kind == full[term.support].kind


CHAIN3_BONDS32 = InteractionGraph.build(3, [(0, 1), (1, 2)], bond_dim=[3, 2])


@pytest.fixture(scope="module")
def chain32_prepared():
    """A chain of three with bond dimensions 3 and 2 (dim 36)."""
    return PreparedInstance(CHAIN3_BONDS32, random_tensors(CHAIN3_BONDS32, 3.0, 2))


class TestRestrictedSolve:
    """Each gap solve runs only on the edges that a processed vertex touches."""

    def test_restricted_terms_and_targets_match_the_full_ones(
        self, prepared_zoo, ring5_prepared, two_component_prepared, chain32_prepared
    ):
        for prep in [
            *prepared_zoo.values(),
            *ring5_prepared,
            *two_component_prepared,
            chain32_prepared,
        ]:
            _check_restriction(prep.graph, prep.hamiltonians, prep.targets)

    @pytest.mark.parametrize(
        "length, dims",
        [(5, [1, 16, 64, 256, 1024, 1024]), (6, [1, 16, 64, 256, 1024, 4096, 4096])],
    )
    def test_solved_dimensions(self, length, dims):
        graph, tensors = random_instance(GraphSpec(topology="ring", length=length), 2.0, 3)
        solved = []
        for t in range(length + 1):
            h = assemble_step(graph, tensors, t)
            if len(h.pair_edges) == len(graph.edges):
                solved.append(1)
            else:
                solved.append((h.restricted if h.pair_edges else h).graph.global_dim)
        assert solved == dims

    def test_gap_matches_full_space_and_dense_oracles(
        self, prepared_zoo, ring5_prepared, two_component_prepared, chain32_prepared
    ):
        # the dense spectrum up to dim 256, the no-kernel full-space solves
        # above it and on one two-component instance; only steps with pair
        # edges, since the others are solved on the full space anyway
        dense = [*prepared_zoo.values(), chain32_prepared]
        full_space = [ring5_prepared[0], *two_component_prepared[:2]]
        for prep in [*dense, *full_space]:
            for t, (h, a) in enumerate(zip(prep.hamiltonians, prep.analyses)):
                e = a.excited_state
                if e is not None:
                    he = h.apply(e)
                    assert np.linalg.norm(he - np.vdot(e, he).real * e) <= 1e-8, t
                if not h.pair_edges:
                    continue
                if prep in dense:
                    lam = np.linalg.eigvalsh(_dense(h))
                    assert a.lambda1 == pytest.approx(lam[1], abs=1e-12), t
                    assert a.gap == pytest.approx(lam[1] - lam[0], abs=1e-12), t
                else:
                    oracle = ground_analysis(h, zero_tol=prep.zero_tol)
                    assert a.lambda1 == pytest.approx(oracle.lambda1, abs=1e-12), t
            assert prep.gaps[0] == 1.0

    def test_chain3_step1_excitation_ties_with_the_free_pair(self, prepared_zoo):
        # one boundary projector on the solved slots (lambda1 = 1) and the
        # free pair of edge (1, 2) (excitation energy 1) tie; the dense
        # oracle test above checks the value
        prep = prepared_zoo["chain3"]
        h = prep.hamiltonians[1]
        assert h.pair_edges == (1,)
        assert [term.kind for term in h.restricted.terms] == ["boundary"]
        assert prep.analyses[1].lambda1 == pytest.approx(1.0, abs=1e-12)

    def test_grid2x3_with_a_custom_order(self, monkeypatch):
        # dim 16384: the restriction oracles at every step, and the gap
        # against a full-space solve of the restricted operator where that
        # is small
        monkeypatch.setenv("PEPS_FORGE_DIM_CAP", "16384")
        n, edges = topology_edges(GraphSpec(topology="grid", rows=2, cols=3))
        graph = InteractionGraph.build(n, edges, order=[4, 1, 3, 0, 5, 2])
        tensors = random_tensors(graph, 2.0, 5)
        hamiltonians = [assemble_step(graph, tensors, t) for t in range(n + 1)]
        targets = [network.contract_partial(graph, tensors, t)[0] for t in range(n + 1)]
        _check_restriction(graph, hamiltonians, targets)
        assert ground_analysis(hamiltonians[0], kernel=targets[0]).gap == 1.0
        for t in (1, 2):
            restricted = ground_analysis(hamiltonians[t].restricted)
            a = ground_analysis(hamiltonians[t], kernel=targets[t])
            assert a.lambda1 == pytest.approx(min(restricted.lambda1, 1.0), abs=1e-12), t
