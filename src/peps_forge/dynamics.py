"""Measurement dynamics of the growth algorithm.

One vertex step works on two Hamiltonians: the current one, whose unique
zero-energy state the register holds, and the next one, whose zero-energy
state is the target. A binary energy measurement of the next Hamiltonian
either lands in the target (probability at least the inverse squared
condition number of the newly applied map) or is undone by re-measuring the
current Hamiltonian and retried. Because both zero-energy states live in a
single two-dimensional invariant plane (Jordan's lemma), the repair loop is
a four-state Markov chain whose only parameter is the certified overlap
``p`` of the two targets, with closed-form termination statistics.

The end-to-end driver runs that chain directly: one scalar
:func:`markov_simulate` per vertex, with no state vectors.
:func:`run_seeds` runs many seeds as one batch, drawing every first
measurement in bulk and the rest of a chain with the same body. The
full-Hilbert-space measurement (:func:`measure_zero_energy`) and repair
loop (:func:`repair_loop_trials`) stay as the independent oracle the chain
is tested against. This module also provides the closed forms and the
cost accounting; the driver's per-vertex random streams come from
:mod:`peps_forge.streams`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .errors import (
    BoundViolationError,
    InvalidInputError,
    OrthogonalTargetsError,
)
from .hamiltonian import (
    GroundAnalysis,
    LocalHamiltonian,
    assemble_step,
    ground_analysis,
)
from .limits import check_dim, check_trials
from .linalg import ZERO_TOL
from .network import (
    InteractionGraph,
    PepsTensor,
    check_tensors,
    contract_partial,
    peps_state,
    restore_gauge,
)
from .streams import MEASUREMENTS, SeedStreams, StreamBatch

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


def _prefix_targets(
    g: InteractionGraph, tensors: list[PepsTensor]
) -> tuple[list[np.ndarray], list[float], tuple[float, ...]]:
    """Every prefix target ``psi_t``, its squared norm ``z_t`` (``t = 0..n``),
    and the squared overlap ``|<psi_{t+1}|psi_t>|^2`` of each step."""
    targets, zs = [], []
    for t in range(g.num_vertices + 1):
        psi, z = contract_partial(g, tensors, t)
        targets.append(psi)
        zs.append(z)
    overlaps = tuple(
        float(abs(np.vdot(targets[t + 1], targets[t])) ** 2) for t in range(g.num_vertices)
    )
    return targets, zs, overlaps


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
    _, zs, overlaps = _prefix_targets(g, tensors)
    checks = []
    for t, p in enumerate(overlaps):
        vertex = g.order[t]
        tensor = tensors[vertex]
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
    ``1/p``); :func:`verify_failure_tail` checks the bound against the
    closed form :func:`p_term` at integer ``m``.
    """
    p = _check_p(p)
    m = float(m)
    if m < 0:
        raise InvalidInputError(f"alternation count must be non-negative, got {m}")
    return (1.0 - p) * math.exp(-2.0 * m * p * (1.0 - p))


class UniformSource(Protocol):
    """What the chain draws from: ``random()`` returns a double in [0, 1)."""

    def random(self) -> float: ...


def _threshold(prob: float, zero_tol: float) -> float:
    """What a draw in [0, 1) must fall below to land a branch of Born probability ``prob``.

    The rules of :func:`measure_zero_energy`: a branch within ``zero_tol``
    of probability 0 never lands, one within ``zero_tol`` of 1 always does.
    """
    if prob <= zero_tol:
        return 0.0
    if 1.0 - prob <= zero_tol:
        return 1.0
    return prob


def _check_chain(p: float, max_alternations: int | None, zero_tol: float) -> None:
    """Reject a chain :func:`markov_simulate` cannot run: ``p`` out of range,
    a negative cap, or no cap on a chain that never lands."""
    if not 0.0 <= p <= 1.0 + zero_tol:
        raise InvalidInputError(f"transition probability must be in [0, 1], got {p}")
    if max_alternations is None:
        if p <= zero_tol:
            raise OrthogonalTargetsError(
                f"overlap {p:.3e} is below zero_tol {zero_tol:.1e}: "
                "the repair loop would never terminate"
            )
    elif max_alternations < 0:
        raise InvalidInputError("max_alternations must be >= 0")


def markov_simulate(
    p: float,
    max_alternations: int | None,
    rng: UniformSource,
    zero_tol: float = ZERO_TOL,
) -> tuple[str, ...]:
    """One trajectory of the four-state repair chain at overlap ``p``.

    Starts at the current target, measures the next Hamiltonian, and
    alternates undo/retry until the new target is hit or
    ``max_alternations`` undo/retry pairs are spent (``None``: until the
    target is hit). The first measurement lands with probability ``p``; an
    undo lands back on the old target with probability ``1 - p``; a retry
    lands with ``p`` after an undo that landed and ``1 - p`` after one that
    missed. Returns the outcome labels (``'zero'`` = landed,
    ``'nonzero'`` = missed), first measurement first.

    Each measurement consumes exactly one ``rng.random()`` draw, the only
    method ``rng`` needs, and follows the ``zero_tol`` rules of
    :func:`measure_zero_energy`, so on the same stream the labels equal
    those of the full-space loop on the two targets whose squared overlap is
    ``p``. A chain with ``p <= zero_tol`` never lands, so it needs a finite
    cap.
    """
    p = float(p)
    _check_chain(p, max_alternations, zero_tol)
    if rng.random() < _threshold(p, zero_tol):
        return ("zero",)
    return _after_a_miss(p, max_alternations, rng, zero_tol)


def _after_a_miss(
    p: float, max_alternations: int | None, rng: UniformSource, zero_tol: float
) -> tuple[str, ...]:
    """The labels of a :func:`markov_simulate` chain whose first measurement
    missed, that one included; ``rng`` is past the first draw."""
    land, stay = _threshold(p, zero_tol), _threshold(1.0 - p, zero_tol)
    outcomes = ["nonzero"]
    hit = False
    alternations = 0
    while not hit and (max_alternations is None or alternations < max_alternations):
        on_old_target = rng.random() < stay
        hit = rng.random() < (land if on_old_target else stay)
        outcomes += ["zero" if on_old_target else "nonzero", "zero" if hit else "nonzero"]
        alternations += 1
    return tuple(outcomes)


def markov_trials(
    p: float, max_alternations: int, trials: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized batch of :func:`markov_simulate` trajectories.

    Returns boolean ``terminated`` and integer ``measurements`` arrays of
    length ``trials``, at most :data:`~peps_forge.limits.MAX_TRIALS`.
    Statistics match the scalar simulation; the draw order differs, so
    individual trajectories are not comparable.
    """
    p = _check_p(p)
    if trials < 1:
        raise InvalidInputError("trials must be >= 1")
    check_trials(trials)
    if max_alternations < 0:
        raise InvalidInputError("max_alternations must be >= 0")
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
    by bounded-mode runs. A budget past the float range raises
    :class:`~peps_forge.errors.InvalidInputError`.
    """
    if not 1.0 <= kappa < math.inf:
        raise InvalidInputError(f"condition number must be finite and >= 1, got {kappa}")
    if num_vertices < 2:
        raise InvalidInputError(f"need at least 2 vertices, got {num_vertices}")
    if not 0.0 < eps < 1.0:
        raise InvalidInputError(f"failure budget must be in (0, 1), got {eps}")
    try:
        s = math.ceil(num_vertices / (2.0 * math.e * eps))
        m = math.ceil(kappa**2 * num_vertices / (2.0 * math.e * eps))
    except OverflowError:  # an int, a power or a ceiling past the float range
        raise InvalidInputError(
            f"alternation budget for kappa={kappa}, eps={eps} overflows a float"
        ) from None
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
    so it is an order-of-magnitude figure, not a promise. A bound past the
    float range raises :class:`~peps_forge.errors.InvalidInputError`.
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
    try:
        measurements = kappa**2 * num_vertices**2 / (math.e * eps) + num_vertices
        runtime = (
            num_vertices**2 * num_edges**2 * kappa**2 / (eps * gap)
            + num_vertices * degree * phys_dim**6
        )
    except (OverflowError, ZeroDivisionError):  # past the float range, or eps * gap == 0
        measurements = runtime = math.inf
    if not (math.isfinite(measurements) and math.isfinite(runtime)):
        raise InvalidInputError("cost bounds overflow a float at these parameters")
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
    yields the step's gap. Each gap solve runs on the bond slots of the
    edges that a processed vertex touches; step 0 touches none, and its gap
    is exactly 1 with no solve. Consecutive step Hamiltonians differ only
    in the terms around one vertex, so the steps share each edge term form
    (see :func:`assemble_step`). Each gap solve from step 2 on starts from
    the previous step's Ritz vector ``excited_state``, restricted to the
    step's solved slots, with a fixed random vector mixed in; step 1 starts
    from that vector alone (see :func:`ground_analysis`). The certified
    overlaps ``p_t`` of consecutive targets are then all a run needs:
    :func:`run_algorithm` runs the four-state chain on them and touches no
    Hamiltonian or state vector.
    Every successful run ends in the last target, so its fidelity with the
    directly contracted state, ``|<restore_gauge(psi_n)|reference_state>|^2``,
    is computed here once as ``fidelity``. The preparation is reusable
    across seeds.

    ``c``, the paper's penalty weight, is accepted and ignored: in the
    canonical gauge its penalty terms are zero, and none is built (see
    :mod:`peps_forge.hamiltonian`).
    """

    def __init__(
        self,
        graph: InteractionGraph,
        tensors: list[PepsTensor],
        c: float | None = None,
        zero_tol: float = ZERO_TOL,
    ):
        # the reference state below needs the physical register product;
        # check it before any step is assembled or solved
        check_dim(math.prod(graph.physical_dims), "contracted state")
        check_tensors(graph, tensors)
        self.graph = graph
        self.tensors = list(tensors)
        self.zero_tol = float(zero_tol)
        n = graph.num_vertices
        terms: dict = {}  # each edge's term forms, shared by the steps
        self.hamiltonians: list[LocalHamiltonian] = [
            assemble_step(graph, tensors, t, cache=terms) for t in range(n + 1)
        ]
        self.targets, self.z_values, self.overlaps = _prefix_targets(graph, tensors)
        self.analyses: list[GroundAnalysis] = []
        for h, psi in zip(self.hamiltonians, self.targets):
            start = self.analyses[-1].excited_state if self.analyses else None
            self.analyses.append(
                ground_analysis(h, zero_tol=zero_tol, kernel=psi, start=start)
            )
        #: condition number of the vertex map applied at each step
        self.step_kappas: tuple[float, ...] = tuple(tensors[v].kappa for v in graph.order)
        self.kappa_max: float = max(self.step_kappas)
        self.gaps: tuple[float, ...] = tuple(a.gap for a in self.analyses)
        self.min_gap: float = min(self.gaps)
        self.reference_state: np.ndarray = peps_state(graph, tensors)
        restored = restore_gauge(graph, self.tensors, self.targets[n])
        self.fidelity: float = float(abs(np.vdot(restored, self.reference_state)) ** 2)


@dataclass(slots=True)
class VertexRecord:
    """Measurement log for one processed vertex.

    Slotted rather than frozen, like :class:`RunReport`: a run builds one
    per vertex, and a frozen dataclass sets each field through
    ``object.__setattr__``. Treat both as read-only.
    """

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


@dataclass(slots=True)
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


def _alternation_cap(
    prepared: PreparedInstance, eps: float, mode: str, max_alternations: int | None
) -> int | None:
    """The per-vertex alternation cap of a run: ``None`` means none."""
    if mode not in ("bounded", "until_success"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    if not 0.0 < eps < 1.0:
        raise InvalidInputError(f"failure budget must be in (0, 1), got {eps}")
    if max_alternations is not None:
        return int(max_alternations)
    if mode == "bounded":
        return required_alternations(prepared.kappa_max, prepared.graph.num_vertices, eps)[1]
    return None


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

    The measurements never leave the plane of the two certified targets, so
    each vertex is one :func:`markov_simulate` chain at the overlap
    ``prepared.overlaps[t]``; no state vector is built. A successful run
    ends in the last target and reports the instance constant
    ``prepared.fidelity``. Deterministic given ``seed``, which must be
    >= 0: vertex ``t`` of a run with seed ``s`` draws from numpy's PCG64
    stream of ``SeedSequence(s, spawn_key=(0, t))``, reproduced bit for bit
    by :class:`~peps_forge.streams.SeedStreams` with the seed's share
    derived once per run.
    """
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    cap = _alternation_cap(prepared, eps, mode, max_alternations)
    g = prepared.graph
    streams = SeedStreams(seed, MEASUREMENTS)
    records: list[VertexRecord] = []
    total = 0
    success = True
    for t in range(g.num_vertices):
        p = prepared.overlaps[t]
        outcomes = markov_simulate(p, cap, streams.uniforms(t), prepared.zero_tol)
        vertex_ok = outcomes[-1] == "zero"
        total += len(outcomes)
        vertex = g.order[t]
        records.append(
            VertexRecord(
                step=t,
                vertex=vertex,
                outcomes=outcomes,
                measurements=len(outcomes),
                alternations=(len(outcomes) - 1) // 2,
                first_shot_probability=p,
                overlap=p,
                kappa=prepared.step_kappas[t],
                gap=prepared.gaps[t + 1],
                succeeded=vertex_ok,
            )
        )
        if not vertex_ok:
            success = False
            break
    return RunReport(
        seed=int(seed),
        mode=mode,
        eps=float(eps),
        alternation_cap=cap,
        kappa_max=prepared.kappa_max,
        min_gap=prepared.min_gap,
        gaps=prepared.gaps,
        success=success,
        fidelity=prepared.fidelity if success else None,
        total_measurements=total,
        vertices=tuple(records),
    )


def run_seeds(
    prepared: PreparedInstance, eps: float, seeds: Sequence[int], mode: str = "bounded"
) -> tuple[list[bool], list[int]]:
    """The ``success`` and ``total_measurements`` of :func:`run_algorithm` at each seed.

    Runs the seeds as one batch, bit for bit like one :func:`run_algorithm`
    per seed. At each vertex a :class:`~peps_forge.streams.StreamBatch`
    takes the first draw of every seed's stream in bulk: a trial whose
    first measurement lands is done with the vertex, and one that misses
    runs the rest of its chain, as :func:`markov_simulate` would, from its
    stream past that draw. A trial that spends the cap stops there.
    """
    cap = _alternation_cap(prepared, eps, mode, None)
    zero_tol = prepared.zero_tol
    streams = StreamBatch(seeds, MEASUREMENTS)
    live = np.ones(len(seeds), dtype=bool)
    totals = np.zeros(len(seeds), dtype=np.int64)
    for t, p in enumerate(prepared.overlaps):
        _check_chain(p, cap, zero_tol)
        draws, resume = streams.first_draws(t)
        totals += live
        for k in np.flatnonzero(live & (draws >= _threshold(p, zero_tol))).tolist():
            outcomes = _after_a_miss(p, cap, resume(k), zero_tol)
            totals[k] += len(outcomes) - 1
            live[k] = outcomes[-1] == "zero"
    return live.tolist(), totals.tolist()


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
    margin statistics; raises :class:`BoundViolationError` when a margin of
    either inequality falls below ``-tol``.

    The second inequality is tight wherever ``1 - p = 1/(2s)``, so its
    smallest margin is reported with the first ``[p, s]`` attaining it and
    the ``tol`` by which a margin may fall below zero.
    """
    if p_grid_s is None:
        p_grid_s = p_grid
    min_margin = math.inf
    for p in p_grid:
        for m in m_grid:
            bound = p_fail_bound(p, m)
            fail = 1.0 - p_term(p, m)
            if bound - fail < -tol:
                raise BoundViolationError(
                    f"closed-form failure {fail:.3e} exceeds bound {bound:.3e} "
                    f"at p={p}, m={m}"
                )
            min_margin = min(min_margin, bound - fail)
    min_s_margin = math.inf
    argmin = None
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
            if margin < min_s_margin:
                min_s_margin, argmin = margin, [p, s]
    return {
        "pairs_checked": len(p_grid) * len(m_grid),
        "s_pairs_checked": len(p_grid_s) * len(s_grid),
        "min_exp_bound_margin": min_margin,
        "min_s_bound_margin": min_s_margin,
        "min_s_bound_argmin": argmin,
        "tol": tol,
    }
