"""Property tests on random small instances against the dense oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peps_forge.dynamics import PreparedInstance
from peps_forge.harness import GraphSpec, InstanceConfig, TensorSpec, build_instance


@st.composite
def instances(draw):
    """Random chain, ring or custom graph (isolated vertices allowed) with a
    random vertex order, bond dimension 2 or 3 and global dimension <= 729."""
    bond_dim = draw(st.sampled_from([2, 3]))
    max_edges = 4 if bond_dim == 2 else 3  # global dimension is bond_dim**(2 E)
    topology = draw(st.sampled_from(["chain", "ring", "custom"]))
    if topology == "chain":
        n = draw(st.integers(2, max_edges + 1))
        spec = GraphSpec(topology="chain", length=n)
    elif topology == "ring":
        n = draw(st.integers(3, max_edges))
        spec = GraphSpec(topology="ring", length=n)
    else:
        n = draw(st.integers(2, 5))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = draw(
            st.lists(st.sampled_from(pairs), min_size=1, max_size=max_edges, unique=True)
        )
        spec = GraphSpec(topology="custom", num_vertices=n, edges=tuple(sorted(edges)))
    cfg = InstanceConfig(
        graph=spec,
        bond_dim=bond_dim,
        tensors=TensorSpec(
            source="random",
            kappa_max=draw(st.floats(1.0, 4.0)),
            seed=draw(st.integers(0, 2**16)),
        ),
        seed=0,
        order=tuple(draw(st.permutations(range(n)))),
    )
    return build_instance(cfg)


@settings(max_examples=10, deadline=None, derandomize=True, database=None)
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
        lam = np.linalg.eigvalsh(dense)
        assert prep.gaps[t] == pytest.approx(lam[1] - lam[0], abs=1e-8), t
