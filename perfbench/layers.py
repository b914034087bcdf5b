"""Where the traced run hooks into the library, and the per-layer metrics.

Each trace point names the namespace a caller looks the function up in:
``dynamics`` imports ``contract_partial``, ``restore_gauge``, ``peps_state``,
``assemble_step`` and ``ground_analysis`` by name, ``harness`` imports
``run_algorithm``, and ``hamiltonian`` reaches ``hermitian_eig`` through the
``linalg`` module.

Per-layer metrics follow three rules:

* ``*_s`` is mean seconds per call over the whole run (set-up, timed loop
  and batch); ``*_self_s`` subtracts the time of traced children;
* ``*_calls``, ``register_applies`` and ``restore_gauge_calls_per_trial``
  count calls made inside the timed operations, per operation;
* ``dynamics.measure_zero_energy_calls`` and
  ``dynamics.useful_measurement_ratio`` count one fixed ``harness.sweep``
  batch, so they repeat exactly for a given seed.

A layer a workload never reaches reads 0. Names and units are listed in
``BENCHMARK.json``.
"""

from __future__ import annotations

from peps_forge import dynamics, hamiltonian, harness, linalg, network


def trace_points():
    """(owner, attribute, span name, size function) for every traced call."""
    return [
        (harness, "build_instance", "harness.build_instance", None),
        (dynamics, "contract_partial", "network.contract_partial", None),
        (network, "apply_on_register", "network.apply_on_register", None),
        (dynamics, "restore_gauge", "network.restore_gauge", None),
        (dynamics, "peps_state", "network.peps_state", None),
        (dynamics, "assemble_step", "hamiltonian.assemble_step", None),
        (hamiltonian, "parent_term", "hamiltonian.parent_term", None),
        (hamiltonian.LocalHamiltonian, "global_matrix", "hamiltonian.global_matrix", None),
        (dynamics, "ground_analysis", "hamiltonian.ground_analysis", None),
        (linalg, "hermitian_eig", "linalg.hermitian_eig", lambda h, *a, **k: len(h)),
        (dynamics.PreparedInstance, "__init__", "dynamics.PreparedInstance", None),
        (dynamics, "run_algorithm", "dynamics.run_algorithm", None),
        (harness, "run_algorithm", "dynamics.run_algorithm", None),
        (dynamics, "measure_zero_energy", "dynamics.measure_zero_energy", None),
        (dynamics, "verify_lemma1", "dynamics.verify_lemma1", None),
    ]


def instrument(tracer) -> None:
    for owner, attr, name, size in trace_points():
        tracer.wrap(owner, attr, name, size)


def layer_metrics(tracer, res, slow: float) -> dict[str, float]:
    """Per-layer metrics of a traced run; ``res`` is its workload result.

    Layer times are as measured; only ``trace.ops_per_s`` is divided by the
    run's slowdown ``slow``, so that it compares with ``ops_per_s``.
    """
    stats = tracer.stats()
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "calls_in": {}, "max_size": 0}

    def get(name):
        return stats.get(name, empty)

    def per_call(name, key="total_s"):
        s = get(name)
        return s[key] / s["calls"] if s["calls"] else 0.0

    def per_op(name):
        return get(name)["calls_in"].get("bench.op", 0) / len(res.ops)

    analysis_calls = get("hamiltonian.ground_analysis")["calls"]
    measured = get("dynamics.measure_zero_energy")["calls_in"].get("bench.command", 0)
    per_batch = measured / len(res.command) if measured else 0.0
    return {
        "harness.build_instance_s": per_call("harness.build_instance"),
        "network.contract_partial_s": per_call("network.contract_partial"),
        "network.contract_partial_calls": per_op("network.contract_partial"),
        "network.register_applies": per_op("network.apply_on_register"),
        "network.restore_gauge_s": per_call("network.restore_gauge"),
        "network.restore_gauge_calls_per_trial": per_op("network.restore_gauge"),
        "network.peps_state_s": per_call("network.peps_state"),
        "hamiltonian.assemble_step_s": per_call("hamiltonian.assemble_step"),
        "hamiltonian.parent_term_calls": per_op("hamiltonian.parent_term"),
        "hamiltonian.global_matrix_s": per_call("hamiltonian.global_matrix"),
        "hamiltonian.ground_analysis_self_s": (
            tracer.total_minus_children("hamiltonian.ground_analysis", "hamiltonian.global_matrix")
            / analysis_calls
            if analysis_calls
            else 0.0
        ),
        "hamiltonian.dense_bytes": float(res.dense_bytes),
        "linalg.hermitian_eig_calls": per_op("linalg.hermitian_eig"),
        "linalg.hermitian_eig_s": per_call("linalg.hermitian_eig"),
        "linalg.hermitian_eig_max_dim": float(get("linalg.hermitian_eig")["max_size"]),
        "dynamics.prepare_s": per_call("dynamics.PreparedInstance"),
        "dynamics.run_algorithm_self_s": per_call("dynamics.run_algorithm", "self_s"),
        "dynamics.measure_zero_energy_s": per_call("dynamics.measure_zero_energy"),
        "dynamics.measure_zero_energy_calls": per_batch,
        "dynamics.useful_measurement_ratio": (
            res.vertices_per_command / per_batch if per_batch else 0.0
        ),
        "dynamics.verify_lemma1_self_s": per_call("dynamics.verify_lemma1", "self_s"),
        "trace.ops_per_s": len(res.ops) * slow / sum(res.ops),
    }
