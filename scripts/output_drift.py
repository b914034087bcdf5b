#!/usr/bin/env python3
"""Compare every command's output on the shipped fixtures under two source trees.

    python scripts/output_drift.py OLD_SRC NEW_SRC [--fixture NAME ...]

Runs ``run`` (at the config seed, at the two-word seed 4294967303 and in
``until_success`` mode), ``sweep`` (JSON and CSV over 100 trials, 300
trials in ``until_success`` mode and 2000 bounded trials), ``gap-scan``,
``verify-lemma1`` and ``cost-model --config`` on each fixture through the
CLI, once with each ``src`` directory on ``PYTHONPATH``, both on the
fixture file of ``OLD_SRC``. The fixtures hold
explicit tensors; the random-tensor configs in ``GENERATED`` cover sampling
too. Each is written to a temporary directory, selected by name like a
fixture and run with its own commands
(``random-ring6``: ``verify-lemma1 --trials 8`` and ``gap-scan``;
``random-ring5``: ``run``, ``sweep --trials 100 --format csv`` and
``gap-scan``; ``random-ring5-tall``, with three maps taller than their
registers, ``random-ring5-interleaved``, whose same-shape maps are not
neighbours and whose square maps share their QR stack with the right
factors, and ``random-chain4-D3``: ``run`` and ``verify-lemma1 --trials
3``; ``random-chain7-restart``, whose largest gap solve restarts from its
Ritz vector: ``gap-scan``).
Prints one line per command and config: ``identical`` when the exit code
and both output streams match exactly, otherwise the largest relative drift
``|a - b| / max(|a|, |b|)`` of each numeric field that moved, with the
largest absolute drift for fields near zero (list positions and CSV rows
folded into one field), and any field that differs in anything but its
number.

Each tree runs all its commands through ``cli.main`` in one interpreter
(:func:`run_tree`), the two trees at once: first in order, then again in
reverse order, and every command must give the same bytes both times. A
cache that carries state from one command into the next (the sampler's
per-shape graph, the edge-term cache) shows up there, as a line ending in
``differs when run after the others``. The first command also runs as
``python -m peps_forge.cli`` in a process of its own, which must match its
in-process run (else its line ends in ``differs as python -m
peps_forge.cli``), so module entry and exit codes stay covered. Exits 0 when
every output is identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import traceback
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

#: command label -> subcommand and its arguments besides ``--config``
COMMANDS = {
    "run": ("run", []),
    # a seed of two 32-bit words, and chains whose first shots miss (chain3
    # and ring4): with "run", every branch of run_algorithm's stream seeding
    "run-wide-seed": ("run", ["--seed", "4294967303"]),
    "run-until": ("run", ["--mode", "until_success"]),
    "sweep-json": ("sweep", ["--trials", "100"]),
    "sweep-csv": ("sweep", ["--trials", "100", "--format", "csv"]),
    # many chains whose first shots miss, run to their end or to the cap;
    # long ones continue their streams in blocks on numpy's generator
    "sweep-until": ("sweep", ["--mode", "until_success", "--trials", "300"]),
    "sweep-long": ("sweep", ["--trials", "2000"]),
    "gap-scan": ("gap-scan", []),
    "verify-lemma1": ("verify-lemma1", ["--trials", "3"]),
    "cost-model": ("cost-model", []),
}

#: generated config name -> (config document, command labels); the
#: commands sample the config's random tensors, so they see sampling drift
GENERATED = {
    "random-ring6": (
        {
            "graph": {"topology": "ring", "length": 6},
            "bond_dim": 2,
            "tensors": {"source": "random", "kappa_max": 2.0, "seed": 17},
            "seed": 0,
        },
        {
            "verify-lemma1": ("verify-lemma1", ["--trials", "8"]),
            "gap-scan": ("gap-scan", []),
        },
    ),
    # the shape the benchmark prepares: sampling drift reaches the driver
    "random-ring5": (
        {
            "graph": {"topology": "ring", "length": 5},
            "bond_dim": 2,
            "tensors": {"source": "random", "kappa_max": 2.0, "seed": 0},
            "seed": 0,
        },
        {
            "run": COMMANDS["run"],
            "sweep-csv": COMMANDS["sweep-csv"],
            "gap-scan": COMMANDS["gap-scan"],
        },
    ),
    # maps taller than their registers: restore_gauge and peps_state stack a
    # tall product over a block of 5 at vertex 1
    "random-ring5-tall": (
        {
            "graph": {"topology": "ring", "length": 5},
            "bond_dim": 2,
            "tensors": {
                "source": "random", "kappa_max": 2.0, "physical_dims": [5, 6, 4, 4, 7], "seed": 0,
            },
            "seed": 0,
        },
        {
            "run": COMMANDS["run"],
            "verify-lemma1": COMMANDS["verify-lemma1"],
        },
    ),
    # three shape groups, each spread over vertices that are not neighbours;
    # the sampler stacks each group and the square maps' left factors share
    # one QR with every right factor
    "random-ring5-interleaved": (
        {
            "graph": {"topology": "ring", "length": 5},
            "bond_dim": 2,
            "tensors": {
                "source": "random", "kappa_max": 3.0, "physical_dims": [5, 4, 5, 4, 6], "seed": 23,
            },
            "seed": 0,
        },
        {
            "run": COMMANDS["run"],
            "verify-lemma1": COMMANDS["verify-lemma1"],
        },
    ),
    # bond dimension 3: blocks of odd size after a register, which the
    # register kernel keeps off its stacked product
    "random-chain4-D3": (
        {
            "graph": {"topology": "chain", "length": 4},
            "bond_dim": 3,
            "tensors": {"source": "random", "kappa_max": 2.0, "seed": 3},
            "seed": 0,
        },
        {
            "run": COMMANDS["run"],
            "verify-lemma1": COMMANDS["verify-lemma1"],
        },
    ),
    # a gap solve that restarts: step 6 solves on dimension 4096 and takes 68
    # products, four past a full basis of KRYLOV_BASIS = 64 vectors
    "random-chain7-restart": (
        {
            "graph": {"topology": "chain", "length": 7},
            "bond_dim": 2,
            "tensors": {"source": "random", "kappa_max": 20.0, "seed": 12},
            "seed": 0,
        },
        {"gap-scan": COMMANDS["gap-scan"]},
    ),
}


def run_cli(src: Path, args: list[str]) -> tuple[int, str, str]:
    """Exit code, standard output and standard error of ``python -m
    peps_forge.cli *args`` on ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "peps_forge.cli", *args],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=False,
    )
    return proc.returncode, proc.stdout, proc.stderr


def _run_in_process(args: list[str]) -> tuple[int, str, str]:
    """What :func:`run_cli` gives for ``args``, from ``cli.main`` in this interpreter.

    ``main``'s return value or ``SystemExit`` code becomes the exit code
    the way the interpreter makes it: ``None`` is 0, an int is taken
    modulo 256, and anything else is printed to standard error and gives
    1. Each job runs under its own ``warnings.catch_warnings()``, which
    clears the record of warnings already shown, so a warning prints once
    per job as it would once per process. What stays apart from a real
    process: an uncaught exception's traceback has other frames, and a
    warning attributed to ``__main__`` follows the filters of a module
    that is not ``__main__``.
    """
    from peps_forge import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            try:
                status = cli.main(args)
            except SystemExit as exc:  # argparse's usage errors
                status = exc.code
            except Exception:
                traceback.print_exc()
                status = 1
        if status is None:
            code = 0
        elif isinstance(status, int):
            code = status % 256
        else:
            print(status, file=sys.stderr)
            code = 1
    return code, out.getvalue(), err.getvalue()


def serve() -> None:
    """Read a JSON list of argument lists from standard input and print
    their results, run in order and then in reverse order, as JSON."""
    jobs = json.load(sys.stdin)
    forward = [_run_in_process(args) for args in jobs]
    backward = [_run_in_process(args) for args in reversed(jobs)][::-1]
    json.dump([forward, backward], sys.stdout)


def run_tree(src: Path, jobs: list[list[str]]) -> tuple[list, list, tuple[int, str, str]]:
    """Each job's exit code and output streams on ``src``: in order, in
    reverse order (both from one interpreter, see :func:`serve`), and the
    first job's as ``python -m peps_forge.cli`` (:func:`run_cli`)."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    here = str(Path(__file__).resolve().parent)
    serve_jobs = f"import sys; sys.path.append({here!r}); import output_drift; output_drift.serve()"
    proc = subprocess.run(
        [sys.executable, "-c", serve_jobs],
        input=json.dumps(jobs), env=env, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"the command runner on {src} failed:\n{proc.stderr}")
    forward, backward = ([tuple(r) for r in results] for results in json.loads(proc.stdout))
    return forward, backward, run_cli(src, jobs[0])


def fields(text: str) -> dict[str, list]:
    """Field name -> values in output order, of a JSON document or a CSV table."""
    try:
        doc = json.loads(text)
    except ValueError:
        rows = list(csv.DictReader(io.StringIO(text)))
        return {key: [row[key] for row in rows] for key in (rows[0] if rows else {})}
    out: dict[str, list] = {}

    def walk(node, path: str) -> None:
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{path}.{key}" if path else key)
        elif isinstance(node, list):
            for value in node:
                walk(value, f"{path}[]")
        else:
            out.setdefault(path, []).append(node)

    walk(doc, "")
    return out


def _number(value) -> float | None:
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def drift(old: str, new: str) -> list[str]:
    """One line per field that differs: its largest relative and absolute
    drift, or ``differs``."""
    a, b = fields(old), fields(new)
    lines = [f"{key}: only in one output" for key in sorted(set(a) ^ set(b))]
    for key in sorted(set(a) & set(b)):
        if a[key] == b[key]:
            continue
        if len(a[key]) != len(b[key]):
            lines.append(f"{key}: differs")
            continue
        rel = absolute = 0.0
        for x, y in zip(a[key], b[key]):
            if x == y:
                continue
            fx, fy = _number(x), _number(y)
            if fx is None or fy is None:
                rel = None
                break
            rel = max(rel, abs(fx - fy) / max(abs(fx), abs(fy)))
            absolute = max(absolute, abs(fx - fy))
        lines.append(
            f"{key}: differs" if rel is None else f"{key}: {rel:.2e} (abs {absolute:.1e})"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument(
        "--fixture", action="append", help="only this fixture or generated config (repeatable)"
    )
    args = parser.parse_args(argv)
    fixture_dir = args.old_src / "peps_forge" / "fixtures"
    shipped = {p.stem: (p.resolve(), COMMANDS) for p in fixture_dir.glob("*.json")}
    known = sorted(shipped) + sorted(GENERATED)
    names = args.fixture or known
    if not names or not set(names) <= set(known):
        parser.error(f"configs {names} not all among the fixtures of OLD_SRC and {known}")
    with tempfile.TemporaryDirectory() as tmp:
        configs = dict(shipped)
        for name, (doc, commands) in GENERATED.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            configs[name] = (path, commands)
        cases = [(label, name) for name in names for label in configs[name][1]]
        jobs = []
        for label, name in cases:
            path, commands = configs[name]
            command, extra = commands[label]
            jobs.append([command, "--config", str(path), *extra])
        trees = (args.old_src.resolve(), args.new_src.resolve())
        with ThreadPoolExecutor(len(trees)) as pool:
            runs = list(pool.map(lambda src: run_tree(src, jobs), trees))
    identical = True
    for tree, (forward, backward, module) in zip(trees, runs):
        for (label, name), a, b in zip(cases, forward, backward):
            if a != b:
                identical = False
                print(f"{label:14s} {name:24s} differs when run after the others on {tree}")
        if module != forward[0]:
            identical = False
            label, name = cases[0]
            print(f"{label:14s} {name:24s} differs as python -m peps_forge.cli on {tree}")
    (olds, _, _), (news, _, _) = runs
    for (label, name), old, new in zip(cases, olds, news):
        if old == new:
            print(f"{label:14s} {name:24s} identical")
            continue
        identical = False
        lines = [f"exit {old[0]} -> {new[0]}"] if old[0] != new[0] else []
        lines += ["standard error differs"] if old[2] != new[2] else []
        if old[1] != new[1]:
            lines += drift(old[1], new[1]) or ["differs in layout only"]
        print(f"{label:14s} {name:24s} " + "; ".join(lines))
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
