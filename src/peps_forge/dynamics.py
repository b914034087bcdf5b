"""Measurement dynamics of the growth algorithm.

One vertex step works on two Hamiltonians: the current one, whose unique
zero-energy state the register holds, and the next one, whose zero-energy
state is the target. A binary energy measurement of the next Hamiltonian
either lands in the target (probability at least the inverse squared
condition number of the newly applied map) or is undone by re-measuring the
current Hamiltonian and retried. Because both zero-energy states live in a
single two-dimensional invariant plane, the repair loop is a four-state
Markov chain with closed-form termination statistics; this module provides
the exact simulation, the plane construction, the closed forms, and the
end-to-end driver with cost accounting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BoundViolationError,
    InvalidInputError,
    NumericalFailureError,
    OrthogonalTargetsError,
)
from .hamiltonian import (
    GroundAnalysis,
    LocalHamiltonian,
    assemble_step,
    ground_analysis,
)
from .linalg import ZERO_TOL
from .network import (
    InteractionGraph,
    PepsTensor,
    check_tensors,
    contract_partial,
    peps_state,
    restore_gauge,
)

#: targets closer than this to orthogonal stall the repair loop
MIN_OVERLAP = 1e-12

#: 1 - p below this counts as a fully aligned (trivial) plane
TRIVIAL_PLANE_TOL = 1e-12


@dataclass(frozen=True)
class MeasurementOutcome:
    """Result of one binary zero-vs-nonzero energy measurement."""

    label: str  # 'zero' | 'nonzero'
    probability: float  # Born probability of the observed branch
    state: np.ndarray  # normalized post-measurement state


def measure_zero_energy(
    state: np.ndarray,
    kernel: np.ndarray,
    rng: np.random.Generator,
    zero_tol: float = ZERO_TOL,
) -> MeasurementOutcome:
    """Projectively measure zero vs. nonzero energy on ``state``.

    ``kernel`` is the unit zero-energy state of the measured Hamiltonian;
    :class:`PreparedInstance` certifies that each step's kernel is this one
    vector. Exactly one uniform variate is consumed per call, so outcome
    sequences are reproducible from the generator state. Branches with Born
    probability below ``zero_tol`` are never selected.
    """
    state = np.asarray(state, dtype=complex)
    amp = np.vdot(kernel, state)
    inside = amp * kernel
    resid = state - inside
    p_zero = float(abs(amp) ** 2)
    p_nonzero = float(np.vdot(resid, resid).real)
    draw = rng.random()
    if p_zero <= zero_tol:
        zero = False
    elif p_nonzero <= zero_tol:
        zero = True
    else:
        zero = draw < p_zero
    if zero:
        return MeasurementOutcome(
            label="zero", probability=p_zero, state=inside / math.sqrt(p_zero)
        )
    return MeasurementOutcome(
        label="nonzero", probability=p_nonzero, state=resid / math.sqrt(p_nonzero)
    )


def overlap_p(g: InteractionGraph, tensors: list[PepsTensor], t: int) -> float:
    """Squared overlap between the step-``t`` and step-``t+1`` target states."""
    if not 0 <= t < g.num_vertices:
        raise InvalidInputError(f"step {t} out of range 0..{g.num_vertices - 1}")
    psi_t, _ = contract_partial(g, tensors, t)
    psi_next, _ = contract_partial(g, tensors, t + 1)
    return float(abs(np.vdot(psi_next, psi_t)) ** 2)


@dataclass(frozen=True)
class Lemma1StepCheck:
    """Overlap and norm-ratio bound comparison at one step."""

    step: int
    vertex: int
    kappa: float
    overlap: float
    overlap_bound: float
    overlap_margin: float
    z_ratio: float
    z_bound: float
    z_margin: float


@dataclass(frozen=True)
class Lemma1Report:
    steps: tuple[Lemma1StepCheck, ...]
    min_overlap_margin: float
    min_z_margin: float


def verify_lemma1(
    g: InteractionGraph, tensors: list[PepsTensor], tol: float = 1e-10
) -> Lemma1Report:
    """Check the overlap and norm-ratio lower bounds at every step.

    For positive vertex maps the squared overlap of consecutive targets is
    at least the inverse squared condition number of the newly applied map,
    and the squared-norm ratio is at least its smallest squared singular
    value. A violation beyond ``tol`` raises :class:`BoundViolationError`
    (it indicates an implementation bug, not a property of valid inputs).
    """
    check_tensors(g, tensors)
    states = []
    zs = []
    for t in range(g.num_vertices + 1):
        psi, z = contract_partial(g, tensors, t)
        states.append(psi)
        zs.append(z)
    checks = []
    for t in range(g.num_vertices):
        vertex = g.order[t]
        tensor = tensors[vertex]
        p = float(abs(np.vdot(states[t + 1], states[t])) ** 2)
        p_bound = 1.0 / tensor.kappa**2
        ratio = zs[t + 1] / zs[t]
        z_bound = tensor.sigma_min**2
        checks.append(
            Lemma1StepCheck(
                step=t,
                vertex=vertex,
                kappa=tensor.kappa,
                overlap=p,
                overlap_bound=p_bound,
                overlap_margin=p - p_bound,
                z_ratio=ratio,
                z_bound=z_bound,
                z_margin=ratio - z_bound,
            )
        )
    min_p_margin = min(c.overlap_margin for c in checks)
    min_z_margin = min(c.z_margin for c in checks)
    if min_p_margin < -tol or min_z_margin < -tol:
        bad = [
            c for c in checks if c.overlap_margin < -tol or c.z_margin < -tol
        ]
        raise BoundViolationError(
            f"overlap/norm-ratio bound violated at steps {[c.step for c in bad]}"
        )
    return Lemma1Report(
        steps=tuple(checks),
        min_overlap_margin=min_p_margin,
        min_z_margin=min_z_margin,
    )


@dataclass(frozen=True)
class JordanPlane:
    """The invariant two-dimensional plane spanned by consecutive targets.

    Phase convention: ``psi_next`` is rephased so that
    ``<psi_next|psi_t> = -sqrt(p)``, under which the four basis-change
    relations hold with positive square roots:

        psi_t         = -sqrt(p) psi_next + sqrt(1-p) psi_next_perp
        psi_t_perp    = sqrt(1-p) psi_next + sqrt(p) psi_next_perp
        psi_next      = -sqrt(p) psi_t + sqrt(1-p) psi_t_perp
        psi_next_perp = sqrt(1-p) psi_t + sqrt(p) psi_t_perp

    A fully aligned pair (p = 1) has no perpendicular directions and is
    returned with ``trivial=True`` and the perpendicular vectors ``None``.
    """

    p: float
    trivial: bool
    psi_t: np.ndarray
    psi_next: np.ndarray
    psi_t_perp: np.ndarray | None
    psi_next_perp: np.ndarray | None
    max_relation_residual: float


def jordan_plane_from_states(
    psi_t: np.ndarray, psi_next: np.ndarray
) -> JordanPlane:
    """Construct the invariant plane of two unit vectors.

    Raises :class:`OrthogonalTargetsError` when the overlap is numerically
    zero (the repair loop could not make progress).
    """
    psi_t = np.asarray(psi_t, dtype=complex)
    psi_next = np.asarray(psi_next, dtype=complex)
    c = complex(np.vdot(psi_next, psi_t))
    p = float(abs(c) ** 2)
    if p < MIN_OVERLAP:
        raise OrthogonalTargetsError(
            f"consecutive targets are orthogonal (p = {p:.3e})"
        )
    if 1.0 - p <= TRIVIAL_PLANE_TOL:
        return JordanPlane(
            p=min(p, 1.0),
            trivial=True,
            psi_t=psi_t,
            psi_next=psi_next,
            psi_t_perp=None,
            psi_next_perp=None,
            max_relation_residual=0.0,
        )
    # rephase so <psi_next|psi_t> = -sqrt(p)
    psi_next = -(c / abs(c)) * psi_next
    sp = math.sqrt(p)
    sq = math.sqrt(1.0 - p)
    psi_next_perp = (psi_t + sp * psi_next) / sq
    psi_t_perp = (psi_next + sp * psi_t) / sq
    residuals = [
        np.linalg.norm(psi_t - (-sp * psi_next + sq * psi_next_perp)),
        np.linalg.norm(psi_t_perp - (sq * psi_next + sp * psi_next_perp)),
        np.linalg.norm(psi_next - (-sp * psi_t + sq * psi_t_perp)),
        np.linalg.norm(psi_next_perp - (sq * psi_t + sp * psi_t_perp)),
    ]
    worst = float(max(residuals))
    if worst > 1e-9:
        raise NumericalFailureError(
            f"plane relations failed to close: residual {worst:.3e}"
        )
    return JordanPlane(
        p=p,
        trivial=False,
        psi_t=psi_t,
        psi_next=psi_next,
        psi_t_perp=psi_t_perp,
        psi_next_perp=psi_next_perp,
        max_relation_residual=worst,
    )


def jordan_plane(
    g: InteractionGraph, tensors: list[PepsTensor], t: int
) -> JordanPlane:
    """Invariant plane of the step-``t`` and step-``t+1`` target states."""
    if not 0 <= t < g.num_vertices:
        raise InvalidInputError(f"step {t} out of range 0..{g.num_vertices - 1}")
    psi_t, _ = contract_partial(g, tensors, t)
    psi_next, _ = contract_partial(g, tensors, t + 1)
    return jordan_plane_from_states(psi_t, psi_next)


def _check_p(p: float) -> float:
    p = float(p)
    if not 0.0 < p <= 1.0:
        raise InvalidInputError(f"transition probability must be in (0, 1], got {p}")
    return p


def p_term(p: float, m: int) -> float:
    """Probability that the repair loop ends within ``2m + 1`` measurements.

    Closed form ``1 - (1-p) (p^2 + (1-p)^2)^m`` for success probability
    ``p`` per attempt and at most ``m`` undo-retry alternations.
    """
    p = _check_p(p)
    if m < 0 or int(m) != m:
        raise InvalidInputError(f"alternation count must be a non-negative integer, got {m}")
    stay = p**2 + (1.0 - p) ** 2
    return 1.0 - (1.0 - p) * stay ** int(m)


def p_fail_bound(p: float, m: float) -> float:
    """Exponential upper bound ``(1-p) exp(-2 m p (1-p))`` on the failure tail.

    ``m`` may be fractional (the theory picks ``m`` as a multiple of
    ``1/p``); for integer ``m`` the bound is cross-checked against the
    closed form.
    """
    p = _check_p(p)
    m = float(m)
    if m < 0:
        raise InvalidInputError(f"alternation count must be non-negative, got {m}")
    bound = (1.0 - p) * math.exp(-2.0 * m * p * (1.0 - p))
    if m.is_integer():
        fail = 1.0 - p_term(p, int(m))
        if fail > bound + 1e-12:
            raise BoundViolationError(
                f"closed-form failure {fail:.3e} exceeds bound {bound:.3e} "
                f"at p={p}, m={m}"
            )
    return bound


def markov_simulate(
    p: float, max_alternations: int, rng: np.random.Generator
) -> tuple[bool, int]:
    """One trajectory of the four-state repair chain.

    Starts at the current target, measures the next Hamiltonian, and
    alternates undo/retry until the new target is hit or the alternation
    budget is exhausted. Returns (terminated, measurements used); the count
    includes the first measurement and is at most ``2 * max_alternations + 1``.
    """
    p = _check_p(p)
    if max_alternations < 0:
        raise InvalidInputError("max_alternations must be >= 0")
    if rng.random() < p:
        return True, 1
    used = 1
    for _ in range(max_alternations):
        # undo: from the failed branch, land back on the old target w.p. 1-p
        on_old_target = rng.random() < 1.0 - p
        used += 1
        # retry: hit the new target w.p. p from the old target, 1-p otherwise
        hit = rng.random() < (p if on_old_target else 1.0 - p)
        used += 1
        if hit:
            return True, used
    return False, used


def markov_trials(
    p: float, max_alternations: int, trials: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized batch of :func:`markov_simulate` trajectories.

    Returns boolean ``terminated`` and integer ``measurements`` arrays of
    length ``trials``. Statistics match the scalar simulation; the draw
    order differs, so individual trajectories are not comparable.
    """
    p = _check_p(p)
    if trials < 1:
        raise InvalidInputError("trials must be >= 1")
    terminated = rng.random(trials) < p
    used = np.ones(trials, dtype=np.int64)
    active = ~terminated
    for _ in range(max_alternations):
        if not active.any():
            break
        n_active = int(active.sum())
        on_old = rng.random(n_active) < 1.0 - p
        hit_prob = np.where(on_old, p, 1.0 - p)
        hit = rng.random(n_active) < hit_prob
        used[active] += 2
        idx = np.flatnonzero(active)
        terminated[idx[hit]] = True
        active[idx[hit]] = False
    used[active] = 2 * max_alternations + 1
    return terminated, used


def markov_exact_distribution(
    p: float, max_alternations: int
) -> tuple[list[int], np.ndarray]:
    """Exact distribution of measurements used by the repair chain.

    Returns categories ``[1, 3, ..., 2m+1, -1]`` (-1 = budget exhausted)
    and their probabilities. Terminating at alternation ``j`` requires the
    first measurement to fail, ``j - 1`` non-terminating alternations and
    one terminating alternation.
    """
    p = _check_p(p)
    m = int(max_alternations)
    stay = p**2 + (1.0 - p) ** 2
    cats = [1] + [2 * j + 1 for j in range(1, m + 1)] + [-1]
    probs = [p]
    for j in range(1, m + 1):
        probs.append((1.0 - p) * stay ** (j - 1) * (1.0 - stay))
    probs.append((1.0 - p) * stay**m)
    return cats, np.asarray(probs)


def required_alternations(
    kappa: float, num_vertices: int, eps: float
) -> tuple[int, int]:
    """Alternation budget guaranteeing overall success probability ``1 - eps``.

    Returns ``(s, m)`` with ``s = ceil(|V| / (2 e eps))`` and
    ``m = ceil(kappa^2 |V| / (2 e eps))``; ``m`` is the per-vertex cap used
    by bounded-mode runs.
    """
    if not 1.0 <= kappa < math.inf:
        raise InvalidInputError(f"condition number must be finite and >= 1, got {kappa}")
    if num_vertices < 2:
        raise InvalidInputError(f"need at least 2 vertices, got {num_vertices}")
    if not 0.0 < eps < 1.0:
        raise InvalidInputError(f"failure budget must be in (0, 1), got {eps}")
    s = math.ceil(num_vertices / (2.0 * math.e * eps))
    m = math.ceil(kappa**2 * num_vertices / (2.0 * math.e * eps))
    return s, m


@dataclass(frozen=True)
class CostModel:
    """Measurement-count and runtime bounds for one parameter set."""

    measurement_bound: float
    runtime_bound: float


def cost_model(
    num_vertices: int,
    num_edges: int,
    kappa: float,
    eps: float,
    gap: float,
    phys_dim: int,
    degree: int,
) -> CostModel:
    """Evaluate the cost bounds for given instance parameters.

    ``measurement_bound`` is ``kappa^2 |V|^2 / (e eps) + |V|``; the runtime
    bound evaluates ``|V|^2 |E|^2 kappa^2 / (eps gap) + |V| k d^6`` with the
    polylogarithmic factor of the energy-measurement subroutine set to 1,
    so it is an order-of-magnitude figure, not a promise.
    """
    for name, val in [
        ("num_vertices", num_vertices),
        ("num_edges", num_edges),
        ("kappa", kappa),
        ("eps", eps),
        ("gap", gap),
        ("phys_dim", phys_dim),
        ("degree", degree),
    ]:
        if not 0 < val < math.inf:
            raise InvalidInputError(f"{name} must be positive and finite, got {val}")
    measurements = kappa**2 * num_vertices**2 / (math.e * eps) + num_vertices
    runtime = (
        num_vertices**2 * num_edges**2 * kappa**2 / (eps * gap)
        + num_vertices * degree * phys_dim**6
    )
    return CostModel(measurement_bound=measurements, runtime_bound=runtime)


def cost_model_for_graph(
    g: InteractionGraph, kappa: float, eps: float, gap: float
) -> CostModel:
    """Cost bounds with size parameters read off an interaction graph."""
    return cost_model(
        num_vertices=g.num_vertices,
        num_edges=len(g.edges),
        kappa=kappa,
        eps=eps,
        gap=gap,
        phys_dim=max(g.physical_dims),
        degree=g.degree_bound,
    )


class PreparedInstance:
    """Instance with every step Hamiltonian analyzed and every target known.

    Building one runs the pre-flight required by the driver: each step's
    contraction target must be certified as the unique zero-energy ground
    state of the step Hamiltonian (see :func:`ground_analysis`), which also
    yields the step's gap. Measurements then project onto the certified
    targets, so no Hamiltonian is touched after preparation. The
    preparation is reusable across seeds.
    """

    def __init__(
        self,
        graph: InteractionGraph,
        tensors: list[PepsTensor],
        c: float = 1.0,
        zero_tol: float = ZERO_TOL,
    ):
        check_tensors(graph, tensors)
        self.graph = graph
        self.tensors = list(tensors)
        self.c = float(c)
        self.zero_tol = float(zero_tol)
        n = graph.num_vertices
        self.hamiltonians: list[LocalHamiltonian] = [
            assemble_step(graph, tensors, t, c=c) for t in range(n + 1)
        ]
        self.targets: list[np.ndarray] = []
        self.z_values: list[float] = []
        for t in range(n + 1):
            psi, z = contract_partial(graph, tensors, t)
            self.targets.append(psi)
            self.z_values.append(z)
        self.analyses: list[GroundAnalysis] = [
            ground_analysis(h, zero_tol=zero_tol, kernel=psi)
            for h, psi in zip(self.hamiltonians, self.targets)
        ]
        self.overlaps: list[float] = [
            float(abs(np.vdot(self.targets[t + 1], self.targets[t])) ** 2)
            for t in range(n)
        ]
        self.kappa_max: float = max(t.kappa for t in tensors)
        self.gaps: list[float] = [a.gap for a in self.analyses]
        self.min_gap: float = min(self.gaps)
        self.reference_state: np.ndarray = peps_state(graph, tensors)


@dataclass(frozen=True)
class VertexRecord:
    """Measurement log for one processed vertex."""

    step: int
    vertex: int
    outcomes: tuple[str, ...]
    measurements: int
    alternations: int
    first_shot_probability: float
    overlap: float
    kappa: float
    gap: float
    succeeded: bool


@dataclass(frozen=True)
class RunReport:
    """Full account of one driver run, reproducible from (instance, seed)."""

    seed: int
    mode: str
    eps: float
    alternation_cap: int | None
    kappa_max: float
    min_gap: float
    gaps: tuple[float, ...]
    success: bool
    fidelity: float | None
    total_measurements: int
    vertices: tuple[VertexRecord, ...]


def _vertex_rng(seed: int, step: int) -> np.random.Generator:
    """Independent, reproducible stream for one vertex's repair loop.

    The leading spawn-key element namespaces measurement streams away from
    other streams derived from the same seed (e.g. tensor generation).
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, step)))


def run_algorithm(
    prepared: PreparedInstance,
    eps: float,
    seed: int,
    mode: str = "bounded",
    max_alternations: int | None = None,
) -> RunReport:
    """Execute the growth algorithm on a prepared instance.

    Starts from the entangled-pair state and processes vertices in order:
    measure the next Hamiltonian, and while the outcome is nonzero, undo by
    measuring the current one and retry. ``bounded`` mode stops a vertex
    after the alternation cap (default from :func:`required_alternations`)
    and reports failure; ``until_success`` loops as long as needed. Every
    binary energy measurement, including the first per vertex, is counted.
    Deterministic given ``seed``.
    """
    if mode not in ("bounded", "until_success"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    g = prepared.graph
    n = g.num_vertices
    if not 0.0 < eps < 1.0:
        raise InvalidInputError(f"failure budget must be in (0, 1), got {eps}")
    if max_alternations is not None:
        cap: int | None = int(max_alternations)
    elif mode == "bounded":
        _, cap = required_alternations(prepared.kappa_max, n, eps)
    else:
        cap = None

    state = prepared.targets[0]
    records: list[VertexRecord] = []
    total = 0
    success = True
    zero_tol = prepared.zero_tol
    for t in range(n):
        rng = _vertex_rng(seed, t)
        psi_prev = prepared.targets[t]
        psi_next = prepared.targets[t + 1]
        out = measure_zero_energy(state, psi_next, rng, zero_tol)
        first_shot = (
            out.probability if out.label == "zero" else 1.0 - out.probability
        )
        outcomes = [out.label]
        state = out.state
        alternations = 0
        vertex_ok = out.label == "zero"
        while out.label == "nonzero":
            if cap is not None and alternations >= cap:
                break
            undo = measure_zero_energy(state, psi_prev, rng, zero_tol)
            outcomes.append(undo.label)
            out = measure_zero_energy(undo.state, psi_next, rng, zero_tol)
            outcomes.append(out.label)
            state = out.state
            alternations += 1
            vertex_ok = out.label == "zero"
        total += len(outcomes)
        vertex = g.order[t]
        records.append(
            VertexRecord(
                step=t,
                vertex=vertex,
                outcomes=tuple(outcomes),
                measurements=len(outcomes),
                alternations=alternations,
                first_shot_probability=first_shot,
                overlap=prepared.overlaps[t],
                kappa=prepared.tensors[vertex].kappa,
                gap=prepared.gaps[t + 1],
                succeeded=vertex_ok,
            )
        )
        if not vertex_ok:
            success = False
            break
    fidelity: float | None = None
    if success:
        restored = restore_gauge(g, prepared.tensors, state)
        fidelity = float(abs(np.vdot(restored, prepared.reference_state)) ** 2)
    return RunReport(
        seed=int(seed),
        mode=mode,
        eps=float(eps),
        alternation_cap=cap,
        kappa_max=prepared.kappa_max,
        min_gap=prepared.min_gap,
        gaps=tuple(prepared.gaps),
        success=success,
        fidelity=fidelity,
        total_measurements=total,
        vertices=tuple(records),
    )


def repair_loop_trials(
    prepared: PreparedInstance,
    step: int,
    max_alternations: int,
    trials: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Repeated full-Hilbert-space repair loops at one fixed vertex.

    Each trial starts from the exact step-``step`` target and runs the
    measurement loop against the step-``step+1`` Hamiltonian with the given
    alternation cap. Returns ``terminated`` and ``measurements`` arrays,
    directly comparable with :func:`markov_trials` at the same overlap.
    """
    if not 0 <= step < prepared.graph.num_vertices:
        raise InvalidInputError(f"step {step} out of range")
    start = prepared.targets[step]
    target = prepared.targets[step + 1]
    zero_tol = prepared.zero_tol
    rng = np.random.default_rng(seed)
    terminated = np.zeros(trials, dtype=bool)
    used = np.zeros(trials, dtype=np.int64)
    for i in range(trials):
        out = measure_zero_energy(start, target, rng, zero_tol)
        count = 1
        alternations = 0
        while out.label == "nonzero" and alternations < max_alternations:
            undo = measure_zero_energy(out.state, start, rng, zero_tol)
            out = measure_zero_energy(undo.state, target, rng, zero_tol)
            count += 2
            alternations += 1
        terminated[i] = out.label == "zero"
        used[i] = count
    return terminated, used


def verify_failure_tail(
    p_grid: Sequence[float],
    m_grid: Sequence[int],
    s_grid: Sequence[int],
    p_grid_s: Sequence[float] | None = None,
    tol: float = 1e-12,
) -> dict:
    """Exhaustive closed-form checks of the failure-tail inequalities.

    Verifies ``1 - p_term(p, m) <= (1-p) exp(-2 m p (1-p))`` on the product
    of ``p_grid`` and ``m_grid``, and ``p_fail(p, s/p) <= 1/(2 e s)`` on the
    product of ``p_grid_s`` (default ``p_grid``) and ``s_grid``. Returns
    margin statistics; raises :class:`BoundViolationError` on any violation.
    """
    if p_grid_s is None:
        p_grid_s = p_grid
    min_margin = math.inf
    for p in p_grid:
        for m in m_grid:
            bound = p_fail_bound(p, m)  # raises if the closed form exceeds it
            min_margin = min(min_margin, bound - (1.0 - p_term(p, int(m))))
    min_s_margin = math.inf
    for p in p_grid_s:
        for s in s_grid:
            bound = p_fail_bound(p, s / p)
            limit = 1.0 / (2.0 * math.e * s)
            margin = limit - bound
            if margin < -tol:
                raise BoundViolationError(
                    f"failure tail {bound:.3e} exceeds 1/(2es) = {limit:.3e} "
                    f"at p={p}, s={s}"
                )
            min_s_margin = min(min_s_margin, margin)
    return {
        "pairs_checked": len(p_grid) * len(m_grid),
        "s_pairs_checked": len(p_grid_s) * len(s_grid),
        "min_exp_bound_margin": min_margin,
        "min_s_bound_margin": min_s_margin,
    }
