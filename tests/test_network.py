"""Graph model, canonical gauge, contraction oracle, gauge restoration."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from _helpers import (
    CHAIN3,
    RING4,
    count_pair_state_builds,
    einsum_apply,
    einsum_expand_pairs,
    einsum_pair_state,
    einsum_restrict_pairs,
    haar_unitary,
    random_complex,
    random_instance,
)
from peps_forge import hamiltonian, network
from peps_forge.dynamics import PreparedInstance, verify_lemma1
from peps_forge.errors import (
    BoundViolationError,
    CapacityError,
    GaugeRestoreError,
    InjectivityError,
    InvalidInputError,
)
from peps_forge.network import InteractionGraph, canonicalize, polar_tensor


class TestInteractionGraph:
    def test_build_chain_defaults(self):
        g = InteractionGraph.build(3, [(0, 1), (1, 2)])
        assert g.register_dims == (2, 4, 2)
        assert g.physical_dims == (2, 4, 2)
        assert g.global_dim == 16
        assert g.degree_bound == 2

    def test_incident_edges_sorted_by_neighbor(self):
        # vertex 2 touches edges to 0, 1, 3; register order follows neighbor ids
        g = InteractionGraph.build(4, [(2, 3), (0, 2), (1, 2)])
        assert g.incident_edges(2) == (1, 2, 0)
        others = [u if w == 2 else w for u, w in (g.edges[e] for e in g.incident_edges(2))]
        assert others == [0, 1, 3]

    def test_edge_normalization(self):
        g = InteractionGraph.build(3, [(1, 0), (2, 1)])
        assert g.edges == ((0, 1), (1, 2))

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidInputError):
            InteractionGraph.build(2, [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(InvalidInputError):
            InteractionGraph.build(2, [(0, 1), (1, 0)])

    def test_rejects_bad_order(self):
        with pytest.raises(InvalidInputError):
            InteractionGraph.build(2, [(0, 1)], order=[0, 0])

    def test_rejects_small_physical_dim(self):
        with pytest.raises(InvalidInputError):
            InteractionGraph.build(3, [(0, 1), (1, 2)], physical_dims=[2, 3, 2])

    def test_rejects_bond_dim_one(self):
        with pytest.raises(InvalidInputError):
            InteractionGraph.build(2, [(0, 1)], bond_dim=1)

    def test_per_edge_bond_dims(self):
        g = InteractionGraph.build(3, [(0, 1), (1, 2)], bond_dim=[2, 3])
        assert g.register_dims == (2, 6, 3)
        assert g.global_dim == 36

    def test_cached_layout_matches_edge_scan(self, fixture_zoo):
        graphs = [graph for _, _, graph, _ in fixture_zoo.values()]
        graphs += [
            InteractionGraph.build(4, [(2, 3), (0, 2), (1, 2)], bond_dim=[2, 3, 2]),
            InteractionGraph.build(5, [(0, 4), (1, 3), (0, 1)]),
        ]
        for g in graphs:
            for v in range(g.num_vertices):
                scanned = sorted(
                    (b if a == v else a, eid)
                    for eid, (a, b) in enumerate(g.edges)
                    if v in (a, b)
                )
                incident = tuple(eid for _, eid in scanned)
                assert g.incident_edges(v) == incident
                dim = math.prod(g.bond_dims[e] for e in incident)
                assert g.register_dim(v) == dim
                assert g.register_dims[v] == dim


class TestCanonicalize:
    def test_identity(self):
        t = canonicalize(0, np.eye(2))
        assert np.abs(t.positive_factor - np.eye(2)).max() <= 1e-12
        assert np.abs(t.isometry - np.eye(2)).max() <= 1e-12
        assert t.kappa == pytest.approx(1.0)

    def test_diagonal(self):
        t = canonicalize(0, np.diag([3.0, 1.0]))
        assert np.abs(t.positive_factor - np.diag([3.0, 1.0])).max() <= 1e-12
        assert np.abs(t.isometry - np.eye(2)).max() <= 1e-12
        assert t.kappa == pytest.approx(3.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_polar_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        a += 2.0 * np.eye(4)
        t = canonicalize(1, a)
        assert np.abs(t.isometry @ t.positive_factor - a).max() <= 1e-10 * np.abs(a).max()
        assert t.kappa >= 1.0
        assert t.sigma_min > 0

    def test_rejects_rank_deficient(self):
        with pytest.raises(InjectivityError):
            canonicalize(0, np.array([[1.0, 1.0], [1.0, 1.0]]))


class TestPolarTensor:
    @staticmethod
    def _factors(count: int, seed: int):
        rng = np.random.default_rng(seed)
        maps = rng.standard_normal((count, 6, 4)) + 1j * rng.standard_normal((count, 6, 4))
        u, sigma, vh = np.linalg.svd(maps, full_matrices=False)
        return maps, u, sigma, vh

    @pytest.mark.parametrize("seed", range(3))
    def test_stack_matches_each_map_alone(self, seed):
        maps, u, sigma, vh = self._factors(5, seed)
        vertices = [3, 0, 4, 1, 2]
        stacked = polar_tensor(vertices, maps, u, sigma, vh)
        for i, got in enumerate(stacked):
            (alone,) = polar_tensor(
                [vertices[i]], maps[i : i + 1], u[i : i + 1], sigma[i : i + 1], vh[i : i + 1]
            )
            assert got.vertex == alone.vertex == vertices[i]
            for field in ("matrix", "isometry", "positive_factor", "singular_values"):
                a, b = getattr(got, field), getattr(alone, field)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (i, field)

    def test_names_the_first_rank_deficient_map(self):
        maps, u, sigma, vh = self._factors(4, 7)
        sigma[[1, 3], -1] = 0.0
        with pytest.raises(InjectivityError, match="tensor at vertex 11 is rank deficient"):
            polar_tensor([10, 11, 12, 13], maps, u, sigma, vh)


class TestPairState:
    def test_single_edge(self):
        g = InteractionGraph.build(2, [(0, 1)])
        state = network.pair_state(g)
        expected = np.zeros(4)
        expected[[0, 3]] = 1.0 / math.sqrt(2)
        assert np.abs(state - expected).max() <= 1e-12

    def test_single_edge_bond_three(self):
        g = InteractionGraph.build(2, [(0, 1)], bond_dim=3)
        state = network.pair_state(g)
        expected = np.zeros(9)
        expected[[0, 4, 8]] = 1.0 / math.sqrt(3)
        assert np.abs(state - expected).max() <= 1e-12

    def test_two_disjoint_edges(self):
        g = InteractionGraph.build(4, [(0, 1), (2, 3)])
        state = network.pair_state(g)
        single = np.zeros(4)
        single[[0, 3]] = 1.0 / math.sqrt(2)
        assert np.abs(state - np.kron(single, single)).max() <= 1e-12
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-10)

    def test_ring_pair_state_has_zero_initial_energy(self):
        graph, tensors = random_instance(RING4, 2.0, 99)
        h0 = hamiltonian.assemble_step(graph, tensors, 0)
        state = network.pair_state(graph)
        assert np.linalg.norm(h0.apply(state)) <= 1e-12

    def test_cached_and_read_only(self):
        graph, _ = random_instance(RING4, 2.0, 3)
        first = network.pair_state(graph)
        second = network.pair_state(graph)
        assert np.array_equal(first, second)
        assert not first.flags.writeable and not second.flags.writeable
        with pytest.raises(ValueError):
            first[0] = 1.0
        with pytest.raises(ValueError):
            second *= 2.0

    @pytest.mark.parametrize("consumer", ["verify_lemma1", "PreparedInstance"])
    def test_built_once_per_graph(self, consumer, monkeypatch):
        builds = count_pair_state_builds(monkeypatch)
        graph, tensors = random_instance(RING4, 2.0, 11)
        if consumer == "verify_lemma1":
            verify_lemma1(graph, tensors)
        else:
            PreparedInstance(graph, tensors)
        assert builds == [graph]

    def test_cap_checked_after_caching(self, monkeypatch):
        graph, tensors = random_instance(RING4, 2.0, 5)
        network.pair_state(graph)
        network.contract_partial(graph, tensors, 1)
        monkeypatch.setenv("PEPS_FORGE_DIM_CAP", "8")
        with pytest.raises(CapacityError):
            network.pair_state(graph)
        with pytest.raises(CapacityError):
            network.contract_partial(graph, tensors, 1)

    def test_interleaved_registers(self):
        # star around vertex 1: its register interleaves edges to 0 and 2
        g = InteractionGraph.build(3, [(1, 2), (0, 1)])
        state = network.pair_state(g)
        tensor = state.reshape(2, 4, 2)
        # register 1 layout: factor to neighbor 0 first, then to neighbor 2
        for i in range(2):
            for j in range(2):
                amp = tensor[i, 2 * i + j, j]
                assert amp == pytest.approx(0.5)


PAIR_GRAPHS = {
    **{
        f"ring{n}": InteractionGraph.build(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])
        for n in range(3, 7)
    },
    "chain3-D3": InteractionGraph.build(3, [(0, 1), (1, 2)], bond_dim=3),
    "chain4-D3": InteractionGraph.build(4, [(0, 1), (1, 2), (2, 3)], bond_dim=3),
    "chain3-bonds32": InteractionGraph.build(3, [(0, 1), (1, 2)], bond_dim=[3, 2]),
    "grid2x2": InteractionGraph.build(4, [(0, 1), (0, 2), (1, 3), (2, 3)]),
    "grid2x3": InteractionGraph.build(
        6, [(0, 1), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (4, 5)]
    ),
    "star-interleaved": InteractionGraph.build(3, [(1, 2), (0, 1)], bond_dim=[2, 3]),
    # amplitudes are products of four mixed factors, so their order shows in the bits
    "ring4-bonds2323": InteractionGraph.build(
        4, [(0, 1), (1, 2), (2, 3), (0, 3)], bond_dim=[2, 3, 2, 3]
    ),
}


class TestPairStateByIndex:
    @pytest.mark.parametrize("name", PAIR_GRAPHS)
    def test_bit_equal_to_einsum(self, name, monkeypatch):
        monkeypatch.setenv("PEPS_FORGE_DIM_CAP", str(2**14))  # grid2x3 has dim 2^14
        graph = PAIR_GRAPHS[name]
        state = network.pair_state(graph)
        assert state.dtype == complex and state.shape == (graph.global_dim,)
        assert np.array_equal(state, einsum_pair_state(graph))

    def test_lowered_cap_raises_before_building(self, monkeypatch):
        graph = InteractionGraph.build(6, [(i, (i + 1) % 6) for i in range(6)])
        monkeypatch.setenv("PEPS_FORGE_DIM_CAP", str(graph.global_dim - 1))
        with pytest.raises(CapacityError):
            network.pair_state(graph)
        assert "_pair_state" not in vars(graph)


class TestPairSlots:
    """PairSlots.restrict and PairSlots.expand against one einsum each, on every edge subset."""

    @pytest.mark.parametrize("name", PAIR_GRAPHS)
    def test_equal_to_einsum(self, name):
        graph = PAIR_GRAPHS[name]
        rng = np.random.default_rng(len(graph.edges))
        edges = range(len(graph.edges))
        subsets = itertools.chain.from_iterable(
            itertools.combinations(edges, k) for k in range(len(graph.edges) + 1)
        )
        for pairs in subsets:
            slots = network.pair_slots(graph, pairs)
            # random vectors hold no pairs, as a warm start need not
            state = random_complex(graph.global_dim, 1, rng)[:, 0]
            state /= np.linalg.norm(state)
            got = slots.restrict(state)
            want = einsum_restrict_pairs(graph, state, pairs)
            assert got.shape == want.shape, pairs
            assert np.abs(got - want).max() <= 1e-15, pairs
            small = random_complex(len(want), 1, rng)[:, 0]
            small /= np.linalg.norm(small)
            got = slots.expand(small)
            want = einsum_expand_pairs(graph, small, pairs)
            assert got.shape == (graph.global_dim,), pairs
            assert np.abs(got - want).max() <= 1e-15, pairs


class TestApplyOnRegister:
    """The register kernel against an einsum over the full register tensor."""

    @pytest.mark.parametrize(
        "dims", [(4, 4, 4, 4, 4, 4), (2, 4, 2), (3, 6, 2), (2, 3, 3), (2, 2)], ids=str
    )
    @pytest.mark.parametrize("extra_rows", [0, 3], ids=["square", "tall"])
    def test_every_position(self, dims, extra_rows):
        # ring6's layout takes the stack at v = 0-2, the copies at v = 3, 4 and the
        # last register's product at v = 5; (2, 3, 3) copies at b = 9. The input is
        # read-only, like the shared pair state, and no output may alias it.
        rng = np.random.default_rng(len(dims) + extra_rows)
        state = random_complex(math.prod(dims), 1, rng)[:, 0]
        state.setflags(write=False)
        before = state.copy()
        for v, r in enumerate(dims):
            op = random_complex(r + extra_rows, r, rng)
            out, new_dims = network.apply_on_register(op, v, state, dims)
            assert new_dims == dims[:v] + (r + extra_rows,) + dims[v + 1 :]
            assert out.shape == (math.prod(new_dims),)
            assert np.abs(out - einsum_apply(op, v, state, dims)).max() <= 1e-12
            assert not np.shares_memory(out, state), v
        assert np.array_equal(state, before)

    @pytest.mark.parametrize("extra_rows", [0, 3], ids=["square", "tall"])
    def test_every_branch_gives_the_wide_product_bits(self, fixture_zoo, extra_rows):
        # the kernel's branches are chosen by shape so that each reproduces one
        # wide op @ x over the (r, a * b) matrix bit for bit; checked at every
        # register position of every prefix layout (processed registers at
        # their physical dimension) of ring6 and of the five fixtures
        graphs = [InteractionGraph.build(6, [(v, (v + 1) % 6) for v in range(6)])]
        graphs += [graph for _, _, graph, _ in fixture_zoo.values()]
        layouts = {
            g.physical_dims[:t] + g.register_dims[t:]
            for g in graphs
            for t in range(g.num_vertices + 1)
        }
        rng = np.random.default_rng(extra_rows)
        for dims in sorted(layouts):
            state = random_complex(math.prod(dims), 1, rng)[:, 0]
            for v, r in enumerate(dims):
                op = random_complex(r + extra_rows, r, rng)
                out, _ = network.apply_on_register(op, v, state, dims)
                a, b = math.prod(dims[:v]), math.prod(dims[v + 1 :])
                x = state.reshape(a, r, b).transpose(1, 0, 2).reshape(r, a * b)
                wide = (op @ x).reshape(-1, a, b).transpose(1, 0, 2).reshape(-1)
                assert np.array_equal(out, wide), (dims, v)

    @pytest.mark.parametrize("order", ["forward", "backward"])
    def test_rectangular_sweep(self, order):
        # every register grows in turn, as restore_gauge and peps_state apply maps
        dims = (3, 6, 2)
        rng = np.random.default_rng(8)
        ops = [random_complex(r + 2, r, rng) for r in dims]
        state = network.pair_state(PAIR_GRAPHS["chain3-bonds32"])
        got, got_dims = state, dims
        want, want_dims = state, dims
        for v in range(3) if order == "forward" else reversed(range(3)):
            got, got_dims = network.apply_on_register(ops[v], v, got, got_dims)
            want = einsum_apply(ops[v], v, want, want_dims)
            want_dims = got_dims
        assert got_dims == (5, 8, 4)
        assert np.abs(got - want).max() <= 1e-12


class TestContractPartial:
    def test_empty_prefix_is_pair_state(self):
        graph, tensors = random_instance(CHAIN3, 3.0, 5)
        state, z = network.contract_partial(graph, tensors, 0)
        assert z == pytest.approx(1.0, abs=1e-12)
        assert np.abs(state - network.pair_state(graph)).max() <= 1e-12

    def test_identity_tensors_fix_pair_state(self):
        g = InteractionGraph.build(3, [(0, 1), (1, 2)])
        tensors = [canonicalize(v, np.eye(g.register_dim(v))) for v in range(3)]
        for prefix in range(4):
            state, z = network.contract_partial(g, tensors, prefix)
            assert z == pytest.approx(1.0, abs=1e-10)
            assert np.abs(state - network.pair_state(g)).max() <= 1e-10

    def test_unit_norm_every_prefix(self):
        graph, tensors = random_instance(RING4, 5.0, 17)
        for prefix in range(graph.num_vertices + 1):
            state, _ = network.contract_partial(graph, tensors, prefix)
            assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-10)

    def test_prefix_out_of_range(self):
        graph, tensors = random_instance(CHAIN3, 2.0, 5)
        with pytest.raises(InvalidInputError):
            network.contract_partial(graph, tensors, 4)

    def test_respects_custom_order(self):
        graph, tensors = random_instance(CHAIN3, 2.0, 5, order=(2, 0, 1))
        state, _ = network.contract_partial(graph, tensors, 1)
        # only vertex 2 has been applied
        manual = network.pair_state(graph)
        manual, _ = network.apply_on_register(
            tensors[2].positive_factor, 2, manual, graph.register_dims
        )
        manual /= np.linalg.norm(manual)
        assert abs(abs(np.vdot(state, manual)) - 1.0) <= 1e-10


class TestZRatioBound:
    """Norm ratios z_{t+1}/z_t and their bound, as ``verify_lemma1`` reports them."""

    def test_identity_ratio_one(self):
        g = InteractionGraph.build(2, [(0, 1)])
        tensors = [canonicalize(v, np.eye(2)) for v in range(2)]
        step = verify_lemma1(g, tensors).steps[0]
        assert step.z_ratio == pytest.approx(1.0, abs=1e-10)
        assert step.z_bound == pytest.approx(1.0, abs=1e-10)

    def test_scaled_identity_ratio(self):
        g = InteractionGraph.build(2, [(0, 1)])
        tensors = [canonicalize(0, 2.0 * np.eye(2)), canonicalize(1, np.eye(2))]
        step = verify_lemma1(g, tensors).steps[0]
        assert step.z_ratio == pytest.approx(4.0, rel=1e-10)
        assert step.z_bound == pytest.approx(4.0, rel=1e-10)

    def test_hand_computed_diagonal_case(self):
        # applying diag(3,1) to the entangled pair: z goes 1 -> (9+1)/2
        g = InteractionGraph.build(2, [(0, 1)])
        tensors = [canonicalize(0, np.eye(2)), canonicalize(1, np.diag([3.0, 1.0]))]
        _, z1 = network.contract_partial(g, tensors, 1)
        _, z2 = network.contract_partial(g, tensors, 2)
        assert z1 == pytest.approx(1.0, abs=1e-12)
        assert z2 == pytest.approx(5.0, rel=1e-12)
        step = verify_lemma1(g, tensors).steps[1]
        assert step.z_ratio == pytest.approx(5.0, rel=1e-12)
        assert step.z_bound == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_instances_satisfy_bound(self, seed):
        graph, tensors = random_instance(CHAIN3, 5.0, 100 + seed)
        for step in verify_lemma1(graph, tensors).steps:
            assert step.z_ratio >= step.z_bound - 1e-10

    def test_violation_raises(self, monkeypatch):
        graph, tensors = random_instance(CHAIN3, 5.0, 3)
        broken = tensors[graph.order[0]]
        monkeypatch.setattr(
            type(broken), "sigma_min", property(lambda self: 1e9)
        )
        with pytest.raises(BoundViolationError):
            verify_lemma1(graph, tensors)


class TestRestoreGauge:
    def test_positive_maps_leave_state_unchanged(self):
        g = InteractionGraph.build(2, [(0, 1)])
        tensors = [canonicalize(0, np.diag([2.0, 1.0])), canonicalize(1, np.eye(2))]
        state, _ = network.contract_partial(g, tensors, 2)
        restored = network.restore_gauge(g, tensors, state)
        assert np.abs(restored - state).max() <= 1e-10

    def test_single_nontrivial_isometry(self):
        rng = np.random.default_rng(8)
        g = InteractionGraph.build(2, [(0, 1)])
        u = haar_unitary(2, rng)
        a = u @ np.diag([1.5, 0.5])
        tensors = [canonicalize(0, a), canonicalize(1, np.eye(2))]
        state, _ = network.contract_partial(g, tensors, 2)
        restored = network.restore_gauge(g, tensors, state)
        reference = network.peps_state(g, tensors)
        assert abs(np.vdot(restored, reference)) ** 2 >= 1.0 - 1e-10

    @pytest.mark.parametrize("seed", range(4))
    def test_chain_fidelity_with_original_tensors(self, seed):
        graph, tensors = random_instance(CHAIN3, 3.0, 60 + seed)
        state, _ = network.contract_partial(graph, tensors, 3)
        restored = network.restore_gauge(graph, tensors, state)
        reference = network.peps_state(graph, tensors)
        assert abs(np.vdot(restored, reference)) ** 2 >= 1.0 - 1e-8

    def test_rectangular_physical_space(self):
        # physical dimension above the virtual one: isometry into a larger space
        graph, tensors = random_instance(
            CHAIN3, 2.0, 21, physical_dims=(3, 5, 2)
        )
        state, _ = network.contract_partial(graph, tensors, 3)
        restored = network.restore_gauge(graph, tensors, state)
        assert restored.shape == (30,)
        reference = network.peps_state(graph, tensors)
        assert abs(np.vdot(restored, reference)) ** 2 >= 1.0 - 1e-8

    def test_norm_loss_rejected(self):
        graph, tensors = random_instance(CHAIN3, 2.0, 22)
        state, _ = network.contract_partial(graph, tensors, 3)
        with pytest.raises(GaugeRestoreError):
            network.restore_gauge(graph, tensors, 0.5 * state)


@pytest.mark.parametrize(
    "spec,kappa",
    [(CHAIN3, 2.0), (CHAIN3, 5.0), (RING4, 3.0)],
)
def test_full_contraction_matches_reference(spec, kappa):
    graph, tensors = random_instance(spec, kappa, 77)
    state, _ = network.contract_partial(graph, tensors, graph.num_vertices)
    restored = network.restore_gauge(graph, tensors, state)
    reference = network.peps_state(graph, tensors)
    assert abs(np.vdot(restored, reference)) ** 2 >= 1.0 - 1e-8


def test_dimension_cap_enforced(monkeypatch):
    graph, tensors = random_instance(RING4, 2.0, 5)
    monkeypatch.setenv("PEPS_FORGE_DIM_CAP", "8")
    with pytest.raises(CapacityError):
        network.pair_state(graph)
