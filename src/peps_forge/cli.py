"""Command-line entry points.

Subcommands: run, sweep, verify-lemma1, verify-lemma2, gap-scan, cost-model.
Exit codes: 0 success, 1 verification failure, 2 invalid input, 3 capacity
exceeded.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys

import numpy as np

from . import dynamics, hamiltonian, harness, limits
from .dynamics import PreparedInstance, run_algorithm
from .errors import (
    BoundViolationError,
    CapacityError,
    InvalidInputError,
    PepsForgeError,
)

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INVALID = 2
EXIT_CAPACITY = 3


def _check_out_path(path: str) -> None:
    """Reject an output path that is a directory or lies in a missing one.

    Runs before any work is done. A path that fails for another reason
    (say, permissions) still fails when the output is written, also with
    exit 2.
    """
    if os.path.isdir(path):
        raise InvalidInputError(f"output path {path!r} is a directory")
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        raise InvalidInputError(f"output path {path!r}: no directory {parent!r}")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _dump(doc, out_path: str | None) -> None:
    _emit(json.dumps(doc, sort_keys=True, indent=2), out_path)


def _prepared_from_config(path: str, seed_override: int | None, eps_override: float | None):
    cfg = harness.with_overrides(harness.load_config(path), seed_override, eps_override)
    graph, tensors = harness.build_instance(cfg)
    prepared = PreparedInstance(graph, tensors, zero_tol=cfg.zero_tol)
    return cfg, prepared


def cmd_run(args) -> int:
    cfg, prepared = _prepared_from_config(args.config, args.seed, args.eps)
    report = run_algorithm(prepared, cfg.eps, cfg.seed, mode=args.mode)
    _emit(harness.report_to_json(report), args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = harness.load_config(args.config)
    result = harness.sweep(cfg, trials=args.trials, base_seed=args.seed, mode=args.mode)
    if args.format == "csv" or args.out:
        _emit(harness.sweep_csv(result), args.out)
    if args.format == "json":
        _dump(result.summary, None)
    return EXIT_OK


def cmd_verify_lemma1(args) -> int:
    if args.trials < 1:
        raise InvalidInputError(f"trials must be >= 1, got {args.trials}")
    limits.check_trials(args.trials)
    cfg = harness.load_config(args.config)
    instances = args.trials if cfg.tensors.source == "random" else 1
    min_p_margin = math.inf
    min_z_margin = math.inf
    steps = 0
    try:
        for i in range(instances):
            # instance i draws tensor seed + i; each config is derived when it runs
            c = cfg if i == 0 else dataclasses.replace(
                cfg, tensors=dataclasses.replace(cfg.tensors, seed=cfg.tensors.seed + i)
            )
            graph, tensors = harness.build_instance(c)
            report = dynamics.verify_lemma1(graph, tensors)
            steps += len(report.steps)
            min_p_margin = min(min_p_margin, report.min_overlap_margin)
            min_z_margin = min(min_z_margin, report.min_z_margin)
    except BoundViolationError as exc:
        _dump({"passed": False, "error": str(exc)}, args.out)
        return EXIT_VERIFICATION
    _dump(
        {
            "passed": True,
            "instances": instances,
            "steps_checked": steps,
            "min_overlap_margin": min_p_margin,
            "min_z_margin": min_z_margin,
        },
        args.out,
    )
    return EXIT_OK


def cmd_verify_lemma2(args) -> int:
    if args.seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    terminated, _ = dynamics.markov_trials(args.p, args.m, args.trials, rng)
    frequency = float(terminated.mean())
    expected = dynamics.p_term(args.p, args.m)
    sigma = math.sqrt(max(expected * (1.0 - expected), 1e-12) / args.trials)
    empirical_ok = abs(frequency - expected) <= 4.0 * sigma
    try:
        grid = dynamics.verify_failure_tail(
            p_grid=[round(0.1 * i, 2) for i in range(1, 10)],
            m_grid=list(range(1, 51)),
            s_grid=list(range(1, 101)),
            p_grid_s=[round(0.05 * i, 2) for i in range(1, 21)],
        )
        grid_ok = True
    except BoundViolationError as exc:
        grid = {"error": str(exc)}
        grid_ok = False
    doc = {
        "passed": empirical_ok and grid_ok,
        "p": args.p,
        "m": args.m,
        "trials": args.trials,
        "empirical_frequency": frequency,
        "expected": expected,
        "four_sigma": 4.0 * sigma,
        "empirical_ok": empirical_ok,
        "grid_checks": grid,
    }
    _dump(doc, args.out)
    return EXIT_OK if doc["passed"] else EXIT_VERIFICATION


def cmd_gap_scan(args) -> int:
    cfg, prepared = _prepared_from_config(args.config, None, None)
    rows = [
        {
            "step": t,
            "lambda0": a.lambda0,
            "lambda1": a.lambda1,
            "gap": a.gap,
            "ground_degeneracy": a.ground_degeneracy,
        }
        for t, a in enumerate(prepared.analyses)
    ]
    if args.dump_terms:
        terms = {
            str(t): hamiltonian.terms_to_json(h)
            for t, h in enumerate(prepared.hamiltonians)
        }
        with open(args.dump_terms, "w", encoding="utf-8") as f:
            json.dump(terms, f, sort_keys=True)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        _emit(buf.getvalue(), args.out)
    else:
        _dump({"instance": harness.instance_label(cfg), "steps": rows}, args.out)
    return EXIT_OK


def _check_cost_flags(args) -> None:
    """Reject a parameter flag out of its range before any instance is prepared.

    The ranges are those that :func:`~peps_forge.dynamics.required_alternations`
    and :func:`~peps_forge.dynamics.cost_model` check again once the
    parameters are assembled, and ``--eps`` that of the config's ``eps``.
    """
    if args.eps is not None and not 0.0 < args.eps < 1.0:
        raise InvalidInputError(f"--eps must be in (0, 1), got {args.eps}")
    if args.kappa is not None and not 1.0 <= args.kappa < math.inf:
        raise InvalidInputError(f"--kappa must be finite and >= 1, got {args.kappa}")
    for flag in ("delta", "d", "k"):
        value = getattr(args, flag)
        if value is not None and not 0 < value < math.inf:
            raise InvalidInputError(f"--{flag} must be positive and finite, got {value}")


def cmd_cost_model(args) -> int:
    _check_cost_flags(args)
    # the seven parameters: from the config or the defaults, then the flags
    if args.config:
        given = [flag for flag in ("V", "E") if getattr(args, flag) is not None]
        if given:
            raise InvalidInputError(
                f"cost-model --config reads the graph from the config; "
                f"drop --{' and --'.join(given)}"
            )
        cfg, prepared = _prepared_from_config(args.config, None, None)
        params = {
            **dynamics.graph_cost_parameters(prepared.graph),
            "kappa": prepared.kappa_max,
            "eps": cfg.eps,
            "gap": prepared.min_gap,
        }
    else:
        missing = [
            name
            for name, val in [("--V", args.V), ("--kappa", args.kappa), ("--eps", args.eps)]
            if val is None
        ]
        if missing:
            raise InvalidInputError(
                f"cost-model needs --config or {', '.join(missing)}"
            )
        params = {"num_edges": args.V - 1, "gap": 1.0, "phys_dim": 2, "degree": 2}
    flags = {
        "num_vertices": args.V,
        "num_edges": args.E,
        "kappa": args.kappa,
        "eps": args.eps,
        "gap": args.delta,
        "phys_dim": args.d,
        "degree": args.k,
    }
    params.update((name, val) for name, val in flags.items() if val is not None)
    s, m = dynamics.required_alternations(
        params["kappa"], params["num_vertices"], params["eps"]
    )
    model = dynamics.cost_model(**params)
    _dump(
        {
            **params,
            "s": s,
            "m": m,
            "measurement_bound": model.measurement_bound,
            "runtime_bound": model.runtime_bound,
        },
        args.out,
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peps-forge",
        description="Simulate and verify measurement-driven preparation of injective PEPS",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="instance config JSON")
        p.add_argument("--out", default=None, help="write output to this path")

    p_run = sub.add_parser("run", help="one seeded run, JSON report")
    common(p_run)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--eps", type=float, default=None)
    p_run.add_argument("--mode", choices=harness.MODES, default="bounded")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="many seeds, CSV rows + JSON summary")
    common(p_sweep)
    p_sweep.add_argument("--trials", type=int, required=True)
    p_sweep.add_argument("--seed", type=int, default=None, help="base seed (default: config seed)")
    p_sweep.add_argument("--mode", choices=harness.MODES, default="bounded")
    p_sweep.add_argument("--format", choices=("json", "csv"), default="json")
    p_sweep.set_defaults(func=cmd_sweep)

    p_l1 = sub.add_parser("verify-lemma1", help="overlap and norm-ratio bounds")
    common(p_l1)
    p_l1.add_argument("--trials", type=int, default=20, help="random instances to draw")
    p_l1.set_defaults(func=cmd_verify_lemma1)

    p_l2 = sub.add_parser("verify-lemma2", help="termination law and failure tails")
    p_l2.add_argument("--p", type=float, default=0.5)
    p_l2.add_argument("--m", type=int, default=1)
    p_l2.add_argument("--trials", type=int, default=100000)
    p_l2.add_argument("--seed", type=int, default=0)
    p_l2.add_argument("--out", default=None)
    p_l2.set_defaults(func=cmd_verify_lemma2)

    p_gap = sub.add_parser("gap-scan", help="spectral gap of every step Hamiltonian")
    common(p_gap)
    p_gap.add_argument("--format", choices=("json", "csv"), default="json")
    p_gap.add_argument("--dump-terms", default=None, help="also dump term matrices as JSON")
    p_gap.set_defaults(func=cmd_gap_scan)

    p_cost = sub.add_parser("cost-model", help="measurement and runtime bounds")
    p_cost.add_argument("--config", default=None)
    p_cost.add_argument("--out", default=None)
    p_cost.add_argument("--V", type=int, default=None, help="number of vertices")
    p_cost.add_argument("--E", type=int, default=None, help="number of edges")
    p_cost.add_argument("--kappa", type=float, default=None)
    p_cost.add_argument("--eps", type=float, default=None)
    p_cost.add_argument("--delta", type=float, default=None, help="spectral gap")
    p_cost.add_argument("--d", type=int, default=None, help="physical dimension")
    p_cost.add_argument("--k", type=int, default=None, help="degree bound")
    p_cost.set_defaults(func=cmd_cost_model)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for path in (args.out, getattr(args, "dump_terms", None)):
            if path:
                _check_out_path(path)
        return args.func(args)
    except CapacityError as exc:
        print(f"capacity exceeded: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (InvalidInputError, OSError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except PepsForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
