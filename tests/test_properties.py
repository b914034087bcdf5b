"""Property tests on random small instances against the dense oracle."""

from __future__ import annotations

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import einsum_apply, einsum_pair_state, random_complex
from peps_forge import network
from peps_forge.dynamics import (
    SCALAR_ROUNDS,
    PreparedInstance,
    markov_simulate,
    verify_lemma1,
)
from peps_forge.errors import ConfigError, OrthogonalTargetsError
from peps_forge.hamiltonian import ground_analysis
from peps_forge.harness import (
    GraphSpec,
    InstanceConfig,
    TensorSpec,
    build_instance,
    config_to_dict,
    parse_config,
    to_explicit_config,
    topology_edges,
)
from peps_forge.linalg import ZERO_TOL
from peps_forge.streams import BLOCK, MEASUREMENTS, SeedStreams, StreamBatch, Uniforms

PROPERTY_SETTINGS = settings(max_examples=10, deadline=None, derandomize=True, database=None)


@st.composite
def instance_configs(draw, topologies=("chain", "ring", "custom")):
    """Random-source config of a graph from ``topologies`` (custom graphs may
    have isolated vertices) with a random vertex order, bond dimension 2 or
    3, global dimension <= 729 and physical dimensions up to one above the
    register dimension; the run fields keep their defaults."""
    bond_dim = draw(st.sampled_from([2, 3]))
    max_edges = 4 if bond_dim == 2 else 3  # global dimension is bond_dim**(2 E)
    topology = draw(st.sampled_from(list(topologies)))
    if topology == "chain":
        n = draw(st.integers(2, max_edges + 1))
        spec = GraphSpec(topology="chain", length=n)
    elif topology == "ring":
        n = draw(st.integers(3, max_edges))
        spec = GraphSpec(topology="ring", length=n)
    elif topology == "grid":
        rows = draw(st.integers(1, 2))
        # a 1 x c grid has c - 1 edges, a 2 x 2 grid has 4
        cols = draw(st.integers(2, max_edges + 1) if rows == 1 else st.integers(1, max_edges // 2))
        n = rows * cols
        spec = GraphSpec(topology="grid", rows=rows, cols=cols)
    else:
        n = draw(st.integers(2, 5))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(
            st.lists(st.sampled_from(pairs), min_size=1, max_size=max_edges, unique=True)
        )
        spec = GraphSpec(topology="custom", num_vertices=n, edges=tuple(sorted(edges)))
    kappa_max = draw(st.floats(1.0, 4.0))
    tensor_seed = draw(st.integers(0, 2**16))
    order = tuple(draw(st.permutations(range(n))))
    _, edge_list = topology_edges(spec)
    registers = [bond_dim ** sum(v in e for e in edge_list) for v in range(n)]
    extra = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    physical = tuple(r + x for r, x in zip(registers, extra))
    return InstanceConfig(
        graph=spec,
        bond_dim=bond_dim,
        tensors=TensorSpec(
            source="random",
            kappa_max=kappa_max,
            physical_dims=physical if math.prod(physical) <= 4096 else None,
            seed=tensor_seed,
        ),
        seed=0,
        order=order,
    )


def instances():
    return instance_configs().map(build_instance)


@st.composite
def configs(draw):
    """:func:`instance_configs` over every topology, with the vertex order
    kept or absent and a random run seed, failure budget, penalty weight
    and zero tolerance."""
    cfg = draw(instance_configs(topologies=("chain", "ring", "grid", "custom")))
    return replace(
        cfg,
        seed=draw(st.integers(0, 2**32)),
        order=draw(st.none() | st.just(cfg.order)),
        eps=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        c=draw(st.floats(1e-3, 1e3)),
        zero_tol=draw(st.floats(1e-14, 1e-2)),
    )


@st.composite
def two_component_configs(draw):
    """Disjoint union of two random chains or rings (bond dimension 2, at
    most five edges) with random tensors and a random vertex order, which
    interleaves the components."""
    edges, n = [], 0
    for _ in range(2):
        size = draw(st.integers(2, 3))
        ring = size == 3 and len(edges) < 3 and draw(st.booleans())
        edges += [(n + i, n + i + 1) for i in range(size - 1)]
        edges += [(n, n + size - 1)] if ring else []
        n += size
    spec = GraphSpec(topology="custom", num_vertices=n, edges=tuple(sorted(edges)))
    return InstanceConfig(
        graph=spec,
        bond_dim=2,
        tensors=TensorSpec(
            source="random",
            kappa_max=draw(st.floats(1.0, 4.0)),
            seed=draw(st.integers(0, 2**16)),
        ),
        seed=0,
        order=tuple(draw(st.permutations(range(n)))),
    )


@PROPERTY_SETTINGS
@given(instances())
def test_matrix_free_layer_matches_dense_oracle(instance):
    graph, tensors = instance
    assert graph.global_dim <= 729
    prep = PreparedInstance(graph, tensors)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(graph.global_dim) + 1j * rng.standard_normal(graph.global_dim)
    for t, h in enumerate(prep.hamiltonians):
        dense = h.global_matrix
        assert np.abs(h.apply(x) - dense @ x).max() <= 1e-12, t
        if 0 < len(h.pair_edges) < len(graph.edges):
            sub = h.restricted
            y = rng.standard_normal(sub.graph.global_dim) + 1j * rng.standard_normal(
                sub.graph.global_dim
            )
            assert np.abs(sub.apply(y) - sub.global_matrix @ y).max() <= 1e-12, t
        lam = np.linalg.eigvalsh(dense)
        assert prep.gaps[t] == pytest.approx(lam[1] - lam[0], abs=1e-8), t


@PROPERTY_SETTINGS
@given(instances())
def test_contraction_invariants(instance):
    """Pair state layout, Lemma 1 margins and gauge invariance on one instance."""
    graph, tensors = instance
    assert np.array_equal(network.pair_state(graph), einsum_pair_state(graph))

    report = verify_lemma1(graph, tensors)
    assert report.min_overlap_margin >= -1e-10
    assert report.min_z_margin >= -1e-10

    psi_n, _ = network.contract_partial(graph, tensors, graph.num_vertices)
    restored = network.restore_gauge(graph, tensors, psi_n)
    reference = network.peps_state(graph, tensors)
    assert abs(np.vdot(restored, reference)) ** 2 >= 1.0 - 1e-10


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.integers(1, 6), min_size=2, max_size=4).map(tuple),
    st.sampled_from([0, 3]),
    st.integers(0, 2**16),
)
def test_register_apply_matches_einsum_oracle(dims, extra_rows, seed):
    """A square or tall map on every register of random dimensions, so that
    the blocks before and after it split ``a < b``, ``a == b`` and ``a > b``."""
    rng = np.random.default_rng(seed)
    state = random_complex(math.prod(dims), 1, rng)[:, 0]
    for v, r in enumerate(dims):
        op = random_complex(r + extra_rows, r, rng)
        out, new_dims = network.apply_on_register(op, v, state, dims)
        assert new_dims == dims[:v] + (r + extra_rows,) + dims[v + 1 :]
        assert np.abs(out - einsum_apply(op, v, state, dims)).max() <= 1e-12, v


@PROPERTY_SETTINGS
@given(configs())
def test_config_round_trip_is_lossless(cfg):
    """Random-source and explicit-source configs survive serialization.

    The maps are rebuilt exactly. A random instance's polar factors come
    from its drawn factors, its explicit pin's from an SVD of each map, so
    those two agree to rounding error only.
    """
    graph, tensors = build_instance(cfg)
    explicit = to_explicit_config(cfg, graph, tensors)
    for c in (cfg, explicit):
        doc = config_to_dict(c)
        assert parse_config(doc) == c
        again = parse_config(json.loads(json.dumps(doc)))
        assert again == c
        _, rebuilt = build_instance(again)
        sampled_then_pinned = c is explicit and cfg.tensors.source == "random"
        for a, b in zip(tensors, rebuilt, strict=True):
            assert np.array_equal(a.matrix, b.matrix)
            for field in ("isometry", "positive_factor", "singular_values"):
                x, y = getattr(a, field), getattr(b, field)
                if sampled_then_pinned:
                    assert np.abs(x - y).max() <= 1e-13, field
                else:
                    assert np.array_equal(x, y), field


@PROPERTY_SETTINGS
@given(two_component_configs())
def test_warm_started_gaps_match_cold_solves_on_two_components(cfg):
    """A warm start from one component's excitation still finds the other's."""
    prep = PreparedInstance(*build_instance(cfg))
    for t, (h, warm) in enumerate(zip(prep.hamiltonians, prep.analyses)):
        cold = ground_analysis(h, kernel=prep.targets[t])
        assert warm.gap == pytest.approx(cold.gap, abs=1e-12), t


#: values that sit on a schema bound or break a type: zeros, ones, integers
#: past int64, the float range and Python's int-string limit, subnormals,
#: the float below 1, non-finite floats, booleans, null, strings and
#: containers
BOUNDARY_VALUES = (
    0,
    1,
    -1,
    2**63,
    2**64 + 1,
    10**400,
    -(10**400),
    10**5000,
    -(10**5000),
    5e-324,
    2.2250738585072014e-308,
    1.0 - 2.0**-53,
    0.0,
    -0.0,
    1.0,
    math.inf,
    -math.inf,
    math.nan,
    True,
    False,
    None,
    "",
    "ring",
    [],
    [0, 1],
    [[0, 1]],
    {},
    {"zero_tol": 0.25},
)


@st.composite
def valid_documents(draw):
    """A config document that :func:`parse_config` accepts: any topology,
    random or explicit tensors, and each optional field present or not."""
    topology = draw(st.sampled_from(["chain", "ring", "grid", "custom"]))
    if topology in ("chain", "ring"):
        graph = {"topology": topology, "length": draw(st.integers(3, 6))}
    elif topology == "grid":
        graph = {
            "topology": "grid",
            "rows": draw(st.integers(1, 3)),
            "cols": draw(st.integers(2, 3)),
        }
    else:
        n = draw(st.integers(2, 4))
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(list)
        edges = draw(st.lists(pairs, min_size=1, max_size=3))
        graph = {"topology": "custom", "num_vertices": n, "edges": edges}
    if draw(st.booleans()):
        tensors = {
            "source": "random",
            "kappa_max": draw(st.floats(1.0, 10.0)),
            "seed": draw(st.integers(0, 2**64)),
        }
        if draw(st.booleans()):
            tensors["physical_dims"] = draw(st.none() | st.lists(st.integers(1, 16), max_size=4))
    else:
        cell = st.lists(st.floats(-2.0, 2.0), min_size=2, max_size=2)
        matrix = st.integers(1, 2).flatmap(
            lambda width: st.lists(
                st.lists(cell, min_size=width, max_size=width), min_size=1, max_size=2
            )
        )
        entries = draw(st.lists(matrix, min_size=1, max_size=2))
        edge_order = [draw(st.lists(st.integers(0, 3), max_size=2)) for _ in entries]
        tensors = {"source": "explicit", "entries": entries, "edge_order": edge_order}
    doc = {
        "graph": graph,
        "bond_dim": draw(st.integers(2, 3)),
        "tensors": tensors,
        "seed": draw(st.integers(0, 2**32)),
    }
    optional = {
        "order": st.none() | st.lists(st.integers(0, 5), max_size=4),
        "eps": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        "c": st.floats(1e-3, 1e3),
        "tolerances": st.fixed_dictionaries({}, optional={"zero_tol": st.floats(1e-12, 0.25)}),
    }
    for key, values in optional.items():
        if draw(st.booleans()):
            doc[key] = draw(values)
    return doc


def _positions(node):
    """Every (container, key) position in a nested document, outermost first."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _positions(value)


def _parses_or_config_error(doc) -> None:
    try:
        cfg = parse_config(doc)
    except ConfigError as exc:
        assert exc.location == "" or exc.location.startswith("/"), exc.location
    else:
        assert isinstance(cfg, InstanceConfig)


@settings(max_examples=30, deadline=1000, derandomize=True, database=None)
@given(valid_documents())
def test_parse_config_returns_or_raises_config_error(doc):
    """A valid document, and each single edit of it, either parses or fails
    with a located ``ConfigError``. The edits: every field or list entry set
    to each of ``BOUNDARY_VALUES``, every key deleted, and an unknown key
    added to every object."""
    assert isinstance(parse_config(doc), InstanceConfig)
    for node, key in list(_positions(doc)):
        old = node[key]
        for value in BOUNDARY_VALUES:
            node[key] = value
            _parses_or_config_error(doc)
        if isinstance(node, dict):
            del node[key]
            _parses_or_config_error(doc)
        node[key] = old
    for node in [doc, *(node[key] for node, key in _positions(doc))]:
        if isinstance(node, dict):
            node["extra"] = 1
            _parses_or_config_error(doc)
            del node["extra"]


class _OneDrawAtATime:
    """numpy's own stream of a driver vertex, drawn and counted one double per call."""

    def __init__(self, seed: int, step: int):
        seq = np.random.SeedSequence(seed, spawn_key=(MEASUREMENTS, step))
        self.rng = np.random.Generator(np.random.PCG64(seq))
        self.draws = 0

    def random(self) -> float:
        self.draws += 1
        return self.rng.random()


# caps around the switch to blocks, around a block's worth of block draws
# (2 (cap - SCALAR_ROUNDS) = BLOCK) and around a block's worth of rounds
CHAIN_CAPS = [0, 1, SCALAR_ROUNDS, SCALAR_ROUNDS + 1, BLOCK // 2 + SCALAR_ROUNDS]
CHAIN_CAPS += [BLOCK - 1, BLOCK, BLOCK + 1, None]
#: consecutive steps, so streams, each example runs
CHAIN_STEPS = 16


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    p=st.one_of(
        st.floats(0.0, ZERO_TOL),  # never lands: every chain runs to its cap
        st.floats(1.0 - ZERO_TOL / 2, 1.0),  # always lands at once
        st.floats(0.45, 0.55),
        st.floats(0.01, 0.1),  # most first shots miss; long chains cross blocks
    ),
    seed=st.integers(0, 2**70),
    first_step=st.integers(0, 2**40),
)
def test_driver_chains_match_one_draw_at_a_time(p, seed, first_step):
    """Both drivers' chains, which continue their streams in blocks, give the
    outcomes and measurement count of the chain on numpy's own stream drawn
    one double per measurement, at each of ``CHAIN_STEPS`` steps and each
    cap of ``CHAIN_CAPS``."""
    steps = range(first_step, first_step + CHAIN_STEPS)
    pcg_state = SeedStreams(seed, MEASUREMENTS).pcg_state
    batched = StreamBatch([seed], MEASUREMENTS).first_draws(steps)[1]
    for i, step in enumerate(steps):
        for cap in CHAIN_CAPS:
            oracle = _OneDrawAtATime(seed, step)
            sources = [oracle, Uniforms(*pcg_state(step)), batched(i, 0)]
            if cap is None and p <= ZERO_TOL:
                for rng in sources:
                    with pytest.raises(OrthogonalTargetsError):
                        markov_simulate(p, cap, rng)
                continue
            want = markov_simulate(p, cap, oracle)
            assert len(want) == oracle.draws
            got = [markov_simulate(p, cap, rng) for rng in sources[1:]]
            assert got == [want, want], (step, cap)
