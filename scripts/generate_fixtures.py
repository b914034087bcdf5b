#!/usr/bin/env python3
"""Regenerate the shipped fixture instances under src/peps_forge/fixtures/.

Each fixture pins explicit tensor entries (sampled once from the seeds
below) together with expected values read off the built instance and its
``PreparedInstance``: per-vertex condition numbers, per-step spectral gaps
from the certified Lanczos solves, step overlaps and partial norms.
"""

from __future__ import annotations

import json
from pathlib import Path

from peps_forge.dynamics import PreparedInstance
from peps_forge.harness import (
    GraphSpec,
    InstanceConfig,
    TensorSpec,
    build_instance,
    config_to_dict,
    to_explicit_config,
)

FIXTURES = {
    "chain2": dict(
        graph=GraphSpec(topology="chain", length=2),
        kappa_max=2.0,
        physical_dims=(3, 2),  # one rectangular map exercises gauge restoration
        tensor_seed=108,
    ),
    "chain3": dict(
        graph=GraphSpec(topology="chain", length=3),
        kappa_max=5.0,
        physical_dims=None,
        tensor_seed=227,
    ),
    "chain4": dict(
        graph=GraphSpec(topology="chain", length=4),
        kappa_max=2.0,
        physical_dims=None,
        tensor_seed=301,
    ),
    "ring4": dict(
        graph=GraphSpec(topology="ring", length=4),
        kappa_max=5.0,
        physical_dims=None,
        tensor_seed=408,
    ),
    "grid2x2": dict(
        graph=GraphSpec(topology="grid", rows=2, cols=2),
        kappa_max=3.0,
        physical_dims=None,
        tensor_seed=512,
    ),
}


def make_fixture(name: str, spec: dict) -> dict:
    cfg = InstanceConfig(
        graph=spec["graph"],
        bond_dim=2,
        tensors=TensorSpec(
            source="random",
            kappa_max=spec["kappa_max"],
            physical_dims=spec["physical_dims"],
            seed=spec["tensor_seed"],
        ),
        seed=7,
        eps=0.1,
    )
    graph, tensors = build_instance(cfg)
    explicit = to_explicit_config(cfg, graph, tensors)
    prepared = PreparedInstance(graph, tensors, zero_tol=cfg.zero_tol)
    expected = {
        "global_dim": graph.global_dim,
        "kappa": [t.kappa for t in tensors],
        "kappa_max": prepared.kappa_max,
        "sigma_min": [t.sigma_min for t in tensors],
        "gaps": prepared.gaps,
        "overlaps": prepared.overlaps,
        "z_values": prepared.z_values,
        "generator": {"kappa_max": spec["kappa_max"], "tensor_seed": spec["tensor_seed"]},
    }
    return {"name": name, "config": config_to_dict(explicit), "expected": expected}


def main() -> None:
    out_dir = Path(__file__).resolve().parent.parent / "src" / "peps_forge" / "fixtures"
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, spec in FIXTURES.items():
        doc = make_fixture(name, spec)
        path = out_dir / f"{name}.json"
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, sort_keys=True, indent=1)
            f.write("\n")
        exp = doc["expected"]
        print(
            f"{name}: dim={exp['global_dim']} kappa_max={exp['kappa_max']:.3f} "
            f"min_gap={min(exp['gaps']):.4f} overlaps="
            f"{[round(p, 3) for p in exp['overlaps']]}"
        )


if __name__ == "__main__":
    main()
