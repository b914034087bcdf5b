"""Output checks computed apart from the layers the benchmark times.

Every quantity here is derived from the raw vertex maps of an instance and
the paper's formulas, with plain ``numpy``: the entangled-pair contraction is
a single ``numpy.einsum`` over one index per edge, polar factors come from a
direct SVD, and the repair-loop statistics come from the four-state chain's
closed form. Nothing is imported from ``network.py``, ``hamiltonian.py`` or
``dynamics.py``; the library objects only supply the values being checked.

Each ``check_*`` function returns a list of problems (empty when the output
is correct), so a workload can count a failed operation and a test can show
that a deliberately wrong value is caught.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

#: a successful run must reproduce the target state to this fidelity
RUN_FIDELITY_TOL = 1e-8
#: ground states and the raw-gauge reference must match the contraction to this
STATE_FIDELITY_TOL = 1e-9
#: overlaps, norm ratios and first-shot probabilities agree to this
OVERLAP_TOL = 1e-10
#: Lemma 1 margins may dip this far below zero
MARGIN_TOL = 1e-10
#: spectral gaps agree with the reference eigenvalues to this
GAP_TOL = 1e-8
#: the step-0 projectors commute, so its gap is 1 to this
STEP0_GAP_TOL = 1e-9
#: below this chi-square p-value the measurement counts disagree with the chain
CHAIN_PVALUE_MIN = 1e-6
#: success-rate slack in binomial standard deviations
SUCCESS_SIGMAS = 3.0


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


class Oracle:
    """Independent reference values of one instance.

    ``edges``, ``bond_dims`` and ``order`` describe the graph; ``matrices``
    are the raw vertex maps (physical x register). The register of a vertex
    is one bond factor per incident edge in ascending neighbor order, and
    the global state flattens vertex 0 first, as the configuration schema
    pins.
    """

    def __init__(self, edges, bond_dims, order, matrices):
        self.edges = [tuple(e) for e in edges]
        self.bond_dims = list(bond_dims)
        self.order = list(order)
        self.n = len(matrices)
        self.matrices = [np.asarray(m, dtype=complex) for m in matrices]
        self.incident = []
        for v in range(self.n):
            inc = sorted(
                (b if a == v else a, e)
                for e, (a, b) in enumerate(self.edges)
                if v in (a, b)
            )
            self.incident.append([e for _, e in inc])
        self.positive = []
        self.sigmas = []
        for m in self.matrices:
            _, s, vh = np.linalg.svd(m, full_matrices=False)
            self.sigmas.append(s)
            self.positive.append((vh.conj().T * s) @ vh)
        self.kappa = [float(s[0] / s[-1]) for s in self.sigmas]
        self.sigma_min = [float(s[-1]) for s in self.sigmas]
        self.kappa_max = max(self.kappa)
        self._targets = None

    @classmethod
    def of(cls, graph, tensors) -> "Oracle":
        """Oracle of a built instance, reading only its graph data and raw maps."""
        return cls(graph.edges, graph.bond_dims, graph.order, [t.matrix for t in tensors])

    def contract(self, maps) -> tuple[np.ndarray, float]:
        """Apply ``maps[v]`` to vertex ``v`` of the pair state.

        Returns the normalized state and the squared norm of the
        unnormalized one (1 for identity maps).
        """
        ne = len(self.edges)
        operands = []
        for v, m in enumerate(maps):
            shape = [m.shape[0]] + [self.bond_dims[e] for e in self.incident[v]]
            operands += [m.reshape(shape), [ne + v] + self.incident[v]]
        state = np.einsum(*operands, list(range(ne, ne + self.n)), optimize="greedy")
        state = state.reshape(-1) / math.sqrt(math.prod(self.bond_dims))
        z = float(np.vdot(state, state).real)
        return state / math.sqrt(z), z

    def raw_state(self) -> np.ndarray:
        """The target network contracted with the raw maps (physical gauge)."""
        return self.contract(self.matrices)[0]

    def targets(self) -> list[tuple[np.ndarray, float]]:
        """Positive-gauge prefix states ``(psi_t, z_t)`` for ``t = 0 .. n``."""
        if self._targets is None:
            out = []
            for t in range(self.n + 1):
                done = set(self.order[:t])
                maps = [
                    self.positive[v] if v in done else np.eye(self.positive[v].shape[0])
                    for v in range(self.n)
                ]
                out.append(self.contract(maps))
            self._targets = out
        return self._targets

    def overlaps(self) -> list[float]:
        """Squared overlaps of consecutive prefix states."""
        ts = self.targets()
        return [float(abs(np.vdot(ts[t + 1][0], ts[t][0])) ** 2) for t in range(self.n)]

    def measurement_bound(self, eps: float) -> float:
        """The paper's budget ``kappa^2 |V|^2 / (e eps) + |V|``."""
        return self.kappa_max**2 * self.n**2 / (math.e * eps) + self.n


def alternation_cap(kappa: float, n: int, eps: float) -> int:
    """Per-vertex cap ``ceil(kappa^2 |V| / (2 e eps))`` from the failure budget."""
    return math.ceil(kappa**2 * n / (2.0 * math.e * eps))


def chain_distribution(p: float, cap: int) -> np.ndarray:
    """Closed-form law of the measurements one vertex uses.

    Entry ``j`` (``j = 0 .. cap``) is the probability that the repair loop
    lands after ``2j + 1`` measurements; the last entry is the probability
    that it exhausts ``cap`` alternations. The first measurement lands with
    probability ``p``; every undo-retry alternation after a miss lands with
    probability ``1 - p^2 - (1-p)^2``.
    """
    stay = p**2 + (1.0 - p) ** 2
    probs = [p] + [(1.0 - p) * stay ** (j - 1) * (1.0 - stay) for j in range(1, cap + 1)]
    probs.append((1.0 - p) * stay**cap)
    return np.asarray(probs)


def dense_from_terms(terms, register_dims) -> np.ndarray:
    """Dense matrix of a sum of local terms, built without the library.

    Each term acts on the registers of its ascending ``support``; it is
    tensored with the identity on the remaining registers and permuted into
    the global vertex order.
    """
    dims = list(register_dims)
    n = len(dims)
    total = math.prod(dims)
    out = np.zeros((total, total), dtype=complex)
    for term in terms:
        support = list(term.support)
        rest = [i for i in range(n) if i not in support]
        full = np.kron(term.matrix, np.eye(math.prod(dims[i] for i in rest)))
        layout = support + rest
        full = full.reshape([dims[i] for i in layout] * 2)
        back = [layout.index(i) for i in range(n)]
        out += full.transpose(back + [n + i for i in back]).reshape(total, total)
    return out


# ---------------------------------------------------------------------------
# sweep-grid2x2
# ---------------------------------------------------------------------------


def check_reference_state(reference_state, oracle: Oracle) -> list[str]:
    """The library's raw-gauge reference against the einsum contraction."""
    fid = abs(np.vdot(reference_state, oracle.raw_state())) ** 2
    if fid < 1.0 - STATE_FIDELITY_TOL:
        return [f"reference_state fidelity {fid:.12f} with the raw-gauge contraction"]
    return []


def check_trial(report, oracle: Oracle, bound: float, cap: int) -> list[str]:
    """One bounded-mode trial: fidelity, budget, cap and first-shot probabilities."""
    problems = []
    if report.alternation_cap != cap:
        problems.append(f"seed {report.seed}: cap {report.alternation_cap}, expected {cap}")
    if report.success and not report.fidelity >= 1.0 - RUN_FIDELITY_TOL:
        problems.append(f"seed {report.seed}: fidelity {report.fidelity!r}")
    if report.total_measurements > bound:
        problems.append(
            f"seed {report.seed}: {report.total_measurements} measurements "
            f"exceed the bound {bound:.1f}"
        )
    overlaps = oracle.overlaps()
    counted = 0
    for rec in report.vertices:
        counted += rec.measurements
        if abs(rec.first_shot_probability - overlaps[rec.step]) > OVERLAP_TOL:
            problems.append(
                f"seed {report.seed} step {rec.step}: first-shot probability "
                f"{rec.first_shot_probability!r} != overlap {overlaps[rec.step]!r}"
            )
    if counted != report.total_measurements:
        problems.append(
            f"seed {report.seed}: vertices used {counted} measurements, "
            f"report says {report.total_measurements}"
        )
    return problems


def count_vertex_measurements(report, histograms: list[np.ndarray]) -> None:
    """Add one trial's per-vertex measurement counts to ``histograms``.

    ``histograms[t][j]`` counts vertices at step ``t`` that landed after
    ``2j + 1`` measurements; the last bin counts exhausted caps.
    """
    for rec in report.vertices:
        h = histograms[rec.step]
        h[rec.alternations if rec.succeeded else len(h) - 1] += 1


def check_chain_counts(histograms, overlaps, cap: int) -> list[str]:
    """Chi-square of per-vertex counts against the chain's closed form."""
    problems = []
    for t, observed in enumerate(histograms):
        observed = np.asarray(observed, dtype=float)
        trials = observed.sum()
        if trials == 0:
            continue
        expected = chain_distribution(overlaps[t], cap) * trials
        # fold the sparse tail (exhausted bin included) into one bin
        keep = len(expected) - 1
        while keep > 1 and (expected[keep - 1] < 5.0 or expected[keep:].sum() < 5.0):
            keep -= 1
        obs = np.append(observed[:keep], observed[keep:].sum())
        exp = np.append(expected[:keep], expected[keep:].sum())
        pvalue = float(stats.chisquare(obs, exp * obs.sum() / exp.sum()).pvalue)
        if not pvalue >= CHAIN_PVALUE_MIN:
            problems.append(
                f"step {t}: measurement counts disagree with the chain at "
                f"p={overlaps[t]:.6f} (chi-square p-value {pvalue:.3e})"
            )
    return problems


def check_success_rate(successes: int, trials: int, eps: float) -> list[str]:
    """Success fraction at least ``1 - eps`` minus three binomial sigmas."""
    sigma = math.sqrt(eps * (1.0 - eps) / trials)
    floor = 1.0 - eps - SUCCESS_SIGMAS * sigma
    if successes / trials < floor:
        return [f"success rate {successes}/{trials} below {floor:.6f}"]
    return []


def check_sweep_rows(rows, reports: dict, oracle: Oracle, bound: float) -> list[str]:
    """``harness.sweep`` rows against the per-trial reports at the same seeds."""
    problems = []
    if sorted(r.seed for r in rows) != sorted(reports):
        return ["sweep rows cover other seeds than the trials"]
    overlaps = oracle.overlaps()
    for row in rows:
        rep = reports[row.seed]
        same = (
            row.success == rep.success
            and row.fidelity == rep.fidelity
            and row.total_measurements == rep.total_measurements
        )
        if not same:
            problems.append(f"seed {row.seed}: sweep row differs from run_algorithm")
        if abs(row.measurement_bound - bound) > 1e-9 * bound:
            problems.append(f"seed {row.seed}: measurement bound {row.measurement_bound!r}")
        if max(abs(a - b) for a, b in zip(row.overlaps, overlaps)) > OVERLAP_TOL:
            problems.append(f"seed {row.seed}: row overlaps differ from the contraction")
    return problems


# ---------------------------------------------------------------------------
# prepare-ring5
# ---------------------------------------------------------------------------


def check_prepared(prepared, oracle: Oracle, reference: dict) -> list[str]:
    """A ``PreparedInstance`` against the contraction and the reference gaps.

    ``reference`` holds the ``kappa`` values and step ``gaps`` that
    ``refgaps.py`` computed for this instance.
    """
    problems = []
    if np.max(np.abs(np.subtract(reference["kappa"], oracle.kappa))) > 1e-12:
        return ["reference gaps were made for another instance; rerun refgaps.py"]
    gaps = [a.gap for a in prepared.analyses]
    if abs(gaps[0] - 1.0) > STEP0_GAP_TOL:
        problems.append(f"step 0 gap {gaps[0]!r} is not 1")
    for t, (gap, ref) in enumerate(zip(gaps, reference["gaps"])):
        if abs(gap - ref) > GAP_TOL:
            problems.append(f"step {t}: gap {gap!r} != reference {ref!r}")
    if list(prepared.gaps) != gaps:
        problems.append("prepared.gaps differ from the ground analyses")
    zero_tol = prepared.zero_tol
    targets = oracle.targets()
    for t, a in enumerate(prepared.analyses):
        if not (a.ground_degeneracy == 1 and a.lambda0 < zero_tol <= a.lambda1):
            problems.append(
                f"step {t}: zero-energy state not unique "
                f"(lambda0={a.lambda0:.3e}, lambda1={a.lambda1:.3e})"
            )
        fid = abs(np.vdot(a.ground_state, targets[t][0])) ** 2
        if fid < 1.0 - STATE_FIDELITY_TOL:
            problems.append(f"step {t}: ground-state fidelity {fid:.12f}")
    for t, (p, ref) in enumerate(zip(prepared.overlaps, oracle.overlaps())):
        kappa = oracle.kappa[oracle.order[t]]
        if abs(p - ref) > OVERLAP_TOL or p < 1.0 / kappa**2 - MARGIN_TOL:
            problems.append(f"step {t}: overlap {p!r} (contraction {ref!r}, kappa {kappa!r})")
    return problems


# ---------------------------------------------------------------------------
# lemma1-ring6
# ---------------------------------------------------------------------------


def check_lemma1(report, oracle: Oracle) -> list[str]:
    """Lemma 1 margins, z-ratio product and per-step overlaps."""
    problems = []
    if report.min_overlap_margin < -MARGIN_TOL or report.min_z_margin < -MARGIN_TOL:
        problems.append(
            f"Lemma 1 margins {report.min_overlap_margin!r}, {report.min_z_margin!r}"
        )
    targets = oracle.targets()
    overlaps = oracle.overlaps()
    product = math.prod(s.z_ratio for s in report.steps)
    z_n = targets[-1][1]
    if abs(product - z_n) > OVERLAP_TOL * z_n:
        problems.append(f"z-ratios multiply to {product!r}, contraction gives {z_n!r}")
    for s in report.steps:
        v = oracle.order[s.step]
        if abs(s.overlap - overlaps[s.step]) > OVERLAP_TOL:
            problems.append(f"step {s.step}: overlap {s.overlap!r} != {overlaps[s.step]!r}")
        margin = s.overlap - 1.0 / oracle.kappa[v] ** 2
        if abs(s.overlap_margin - margin) > OVERLAP_TOL:
            problems.append(f"step {s.step}: overlap margin {s.overlap_margin!r}")
        ratio = targets[s.step + 1][1] / targets[s.step][1]
        if abs(s.z_margin - (ratio - oracle.sigma_min[v] ** 2)) > OVERLAP_TOL:
            problems.append(f"step {s.step}: norm-ratio margin {s.z_margin!r}")
    return problems
