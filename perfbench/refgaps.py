"""Regenerate the reference spectral gaps of the prepare-ring5 workload.

    python3 perfbench/refgaps.py            # rewrites perfbench/ref_gaps.json

For every tensor seed of the pool, the instance is built with
``harness.build_instance`` and each step Hamiltonian's terms with
``hamiltonian.assemble_step``; the dense matrix is then summed from
``h.terms`` by :func:`checks.dense_from_terms` and diagonalized with
``numpy.linalg.eigvalsh``, without ``global_matrix`` or ``hermitian_eig``.
The workload compares the library's gaps with these. Rerun this command
whenever the instance sampling or the term construction changes on purpose.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import bootstrap
import checks

HERE = Path(__file__).resolve().parent
#: tensor seeds 0 .. POOL-1 are the instances prepare-ring5 draws from
POOL = 64


def reference_gaps(graph, tensors) -> list[float]:
    """Gap of every step Hamiltonian, from the dense sum of its terms."""
    from peps_forge import hamiltonian

    gaps = []
    for t in range(graph.num_vertices + 1):
        h = hamiltonian.assemble_step(graph, tensors, t)
        w = np.linalg.eigvalsh(checks.dense_from_terms(h.terms, graph.register_dims))
        gaps.append(float(w[1] - w[0]))
    return gaps


def reference_pool(length: int, kappa_max: float, tensor_seeds) -> dict:
    """The reference document for ring instances of the given tensor seeds."""
    from peps_forge import harness

    import workloads

    instances = {}
    for tensor_seed in tensor_seeds:
        doc = workloads.ring_document(length, kappa_max, tensor_seed)
        graph, tensors = harness.build_instance(harness.parse_config(doc))
        instances[str(tensor_seed)] = {
            "kappa": checks.Oracle.of(graph, tensors).kappa,
            "gaps": reference_gaps(graph, tensors),
        }
    return {"config": {"length": length, "kappa_max": kappa_max}, "instances": instances}


def main() -> int:
    bootstrap.use_checkout_library()
    import workloads

    size = workloads.SIZES["prepare-ring5"]
    doc = reference_pool(size["length"], size["kappa_max"], range(POOL))
    with open(HERE / "ref_gaps.json", "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
