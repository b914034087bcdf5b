from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from peps_forge.dynamics import PreparedInstance
from peps_forge.hamiltonian import GroundAnalysis, LocalHamiltonian, assemble_step, ground_analysis
from peps_forge.harness import FIXTURE_NAMES, build_instance, load_fixture
from peps_forge.network import contract_partial


@pytest.fixture(scope="session")
def fixture_zoo():
    """name -> (config, expected, graph, tensors) for every shipped fixture."""
    zoo = {}
    for name in FIXTURE_NAMES:
        cfg, expected = load_fixture(name)
        graph, tensors = build_instance(cfg)
        zoo[name] = (cfg, expected, graph, tensors)
    return zoo


@pytest.fixture(scope="session")
def prepared_zoo(fixture_zoo):
    """name -> PreparedInstance; pre-flight run once per session."""
    return {
        name: PreparedInstance(graph, tensors, zero_tol=cfg.zero_tol)
        for name, (cfg, _, graph, tensors) in fixture_zoo.items()
    }


@dataclass(frozen=True)
class SolvedStep:
    """One fixture step's Hamiltonian with its cold solve and dense spectrum."""

    hamiltonian: LocalHamiltonian  # assemble_step(graph, tensors, t); never densified here
    target: np.ndarray  # contract_partial(graph, tensors, t)
    searched: GroundAnalysis  # ground_analysis with no kernel given
    eigenvalues: np.ndarray  # dense spectrum of a second assembly of the step


@pytest.fixture(scope="session")
def solved_steps(fixture_zoo):
    """name -> one :class:`SolvedStep` per step ``t = 0..n``: the cold gap
    solves and dense spectra that the dense-oracle tests share. The
    searched solve raises unless the step's zero kernel is one state."""
    steps = {}
    for name, (_, _, graph, tensors) in fixture_zoo.items():
        steps[name] = []
        for t in range(graph.num_vertices + 1):
            h = assemble_step(graph, tensors, t)
            steps[name].append(
                SolvedStep(
                    hamiltonian=h,
                    target=contract_partial(graph, tensors, t)[0],
                    searched=ground_analysis(h),
                    eigenvalues=assemble_step(graph, tensors, t).spectral.eigenvalues,
                )
            )
    return steps
