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
    # one fixture: each tree runs its ten commands in one interpreter, twice,
    # and the first once more as a CLI process of its own
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
    # no CLI process: each tree's runner records every job's arguments and
    # reads its config
    drift = _load(DRIFT)
    seen = []

    def fake_run_tree(src, jobs):
        for args in jobs:
            config = Path(args[args.index("--config") + 1])
            cfg = parse_config(json.loads(config.read_text(encoding="utf-8")))
            seen.append((args[0], args[args.index("--config") + 2 :], cfg))
        results = [(0, "{}", "")] * len(jobs)
        return results, results, results[0]

    monkeypatch.setattr(drift, "run_tree", fake_run_tree)
    src = str(ROOT / "src")
    assert drift.main([src, src, "--fixture", "random-ring6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["verify-lemma1", "random-ring6", "identical"],
        ["gap-scan", "random-ring6", "identical"],
    ]
    # both trees run each command on the same random-tensor ring (the trees
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


#: body of a stand-in ``cli.main`` -> how it ends
EXITS = {
    "return-none": "return None",
    "exit-message": "raise SystemExit('no such config')",
    "exit-wide-code": "raise SystemExit(258)",
    "warn": "import warnings; warnings.warn('drift', RuntimeWarning); return 3",
}


def test_output_drift_in_process_runner_exits_like_the_interpreter():
    # each stand-in main runs as the script of a real process and twice
    # through the in-process runner, which must give the same code and
    # bytes both times (a warning prints again in the second job)
    def source(body):
        return f"def main(args):\n    {body}\n"

    real = []
    for body in EXITS.values():
        proc = subprocess.run(
            [sys.executable, "-c", source(body) + "import sys\nsys.exit(main([]))\n"],
            capture_output=True, text=True, check=False,
        )
        real.append([proc.returncode, proc.stdout, proc.stderr])
    runner = (
        "import json, sys\n"
        f"sys.path.append({str(DRIFT.parent)!r})\n"
        "import output_drift\n"
        "from peps_forge import cli\n"
        "results = []\n"
        "for source in json.loads(sys.argv[1]):\n"
        "    namespace = {}\n"
        "    exec(compile(source, '<string>', 'exec'), namespace)\n"
        "    cli.main = namespace['main']\n"
        "    results.append([output_drift._run_in_process([]) for _ in range(2)])\n"
        "json.dump(results, sys.stdout)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", runner, json.dumps([source(body) for body in EXITS.values()])],
        capture_output=True, text=True, check=True,
    )
    for name, expected, runs in zip(EXITS, real, json.loads(proc.stdout)):
        assert runs == [expected, expected], name
    assert [code for code, _, _ in real] == [0, 1, 2, 3]
    assert real[1][2] == "no such config\n"
    assert "RuntimeWarning: drift" in real[3][2]


def test_output_drift_reports_each_moved_field():
    drift = _load(DRIFT).drift
    old = '{"gaps": [1.0, 0.5], "name": "a", "steps": 3}'
    new = '{"gaps": [1.0, 0.5000005], "name": "b", "steps": 3}'
    assert drift(old, new) == ["gaps[]: 1.00e-06 (abs 5.0e-07)", "name: differs"]
    old_csv = "seed,gap\n1,0.25\n2,0.5\n"
    new_csv = "seed,gap\n1,0.25\n2,0.4999\n"
    assert drift(old_csv, new_csv) == ["gap: 2.00e-04 (abs 1.0e-04)"]
    assert drift(old_csv, "seed\n1\n2\n") == ["gap: only in one output"]
