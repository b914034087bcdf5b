"""The fixture generator reproduces the shipped fixtures; the output-drift
script finds no drift between a tree and itself."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from peps_forge.harness import FIXTURE_NAMES, fixture_path, parse_config

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "generate_fixtures.py"
DRIFT = ROOT / "scripts" / "output_drift.py"


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def generator():
    return _load(SCRIPT)


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


def test_output_drift_of_a_tree_against_itself_is_identical():
    # one fixture keeps the twenty CLI processes to a few seconds
    src = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(DRIFT), src, src, "--fixture", "chain2"],
        capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    commands = list(_load(DRIFT).COMMANDS)
    assert [line.split()[:2] for line in lines] == [[c, "chain2"] for c in commands]
    assert all(line.split()[2:] == ["identical"] for line in lines), proc.stdout


def test_output_drift_generated_config_is_selectable_by_name(monkeypatch, capsys):
    # no CLI process: each job records its arguments and reads its config
    drift = _load(DRIFT)
    seen = []

    def fake_run_cli(src, args):
        config = Path(args[args.index("--config") + 1])
        cfg = parse_config(json.loads(config.read_text(encoding="utf-8")))
        seen.append((args[0], args[args.index("--config") + 2 :], cfg))
        return 0, "{}", ""

    monkeypatch.setattr(drift, "run_cli", fake_run_cli)
    src = str(ROOT / "src")
    assert drift.main([src, src, "--fixture", "random-ring6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["verify-lemma1", "random-ring6", "identical"],
        ["gap-scan", "random-ring6", "identical"],
    ]
    # both trees run each command on the same random-tensor ring (the jobs
    # run on a thread pool, in any order)
    assert sorted((command, extra) for command, extra, _ in seen) == [
        ("gap-scan", []),
        ("gap-scan", []),
        ("verify-lemma1", ["--trials", "8"]),
        ("verify-lemma1", ["--trials", "8"]),
    ]
    for _, _, cfg in seen:
        assert (cfg.graph.topology, cfg.graph.length) == ("ring", 6)
        assert cfg.tensors.source == "random"


def test_output_drift_reports_each_moved_field():
    drift = _load(DRIFT).drift
    old = '{"gaps": [1.0, 0.5], "name": "a", "steps": 3}'
    new = '{"gaps": [1.0, 0.5000005], "name": "b", "steps": 3}'
    assert drift(old, new) == ["gaps[]: 1.00e-06 (abs 5.0e-07)", "name: differs"]
    old_csv = "seed,gap\n1,0.25\n2,0.5\n"
    new_csv = "seed,gap\n1,0.25\n2,0.4999\n"
    assert drift(old_csv, new_csv) == ["gap: 2.00e-04 (abs 1.0e-04)"]
    assert drift(old_csv, "seed\n1\n2\n") == ["gap: only in one output"]
