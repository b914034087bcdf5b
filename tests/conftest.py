from __future__ import annotations

import pytest

from peps_forge.dynamics import PreparedInstance
from peps_forge.harness import FIXTURE_NAMES, build_instance, load_fixture


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
