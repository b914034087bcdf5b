"""The fixture generator reproduces the shipped fixtures."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from peps_forge.harness import FIXTURE_NAMES, fixture_path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "generate_fixtures.py"


@pytest.fixture(scope="module")
def generator():
    spec = importlib.util.spec_from_file_location("generate_fixtures", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _assert_close(made, shipped, where: str) -> None:
    """Equal structure; numbers within 1e-8, everything else equal."""
    if isinstance(shipped, dict):
        assert sorted(made) == sorted(shipped), where
        for key in shipped:
            _assert_close(made[key], shipped[key], f"{where}/{key}")
    elif isinstance(shipped, list):
        assert len(made) == len(shipped), where
        for i, (a, b) in enumerate(zip(made, shipped)):
            _assert_close(a, b, f"{where}/{i}")
    elif isinstance(shipped, float):
        assert made == pytest.approx(shipped, rel=0, abs=1e-8), where
    else:
        assert made == shipped, where


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_make_fixture_reproduces_the_shipped_fixture(generator, name):
    assert sorted(generator.FIXTURES) == sorted(FIXTURE_NAMES)
    shipped = json.loads(fixture_path(name).read_text(encoding="utf-8"))
    # round-trip through JSON, as main() writes it: tuples become lists
    made = json.loads(json.dumps(generator.make_fixture(name, generator.FIXTURES[name])))
    assert made["name"] == shipped["name"] == name
    dump = {"sort_keys": True, "indent": 1}
    assert json.dumps(made["config"], **dump) == json.dumps(shipped["config"], **dump)
    _assert_close(made["expected"], shipped["expected"], "expected")
