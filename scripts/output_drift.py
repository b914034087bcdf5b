#!/usr/bin/env python3
"""Compare every command's output on the shipped fixtures under two source trees.

    python scripts/output_drift.py OLD_SRC NEW_SRC [--fixture NAME ...]

Runs ``run`` (at the config seed, at the two-word seed 4294967303 and in
``until_success`` mode), ``sweep`` (JSON and CSV over 100 trials, 300
trials in ``until_success`` mode and 2000 bounded trials), ``gap-scan``,
``verify-lemma1`` and ``cost-model --config`` on each fixture through
``python -m peps_forge.cli``, once with each ``src`` directory on
``PYTHONPATH``, both on the fixture file of ``OLD_SRC``. The fixtures hold
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
number. Exits 0 when every output is identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
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

#: CLI processes run at once; each loads numpy and scipy
WORKERS = 2


def run_cli(src: Path, args: list[str]) -> tuple[int, str, str]:
    """Exit code, standard output and standard error of ``python -m
    peps_forge.cli *args`` on ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-m", "peps_forge.cli", *args],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=False,
    )
    return proc.returncode, proc.stdout, proc.stderr


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
            for src in (args.old_src.resolve(), args.new_src.resolve()):
                jobs.append((src, [command, "--config", str(path), *extra]))
        with ThreadPoolExecutor(WORKERS) as pool:
            results = list(pool.map(lambda job: run_cli(*job), jobs))
    identical = True
    for i, (label, name) in enumerate(cases):
        old, new = results[2 * i : 2 * i + 2]
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
