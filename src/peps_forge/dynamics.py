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

The end-to-end driver runs that chain directly, with no state vectors:
each vertex draws its first measurement, and one that misses runs the
scalar :func:`markov_simulate` chain. :func:`run_seeds` runs many seeds as
one batch, drawing every first measurement in bulk and each missed chain
through the same function. The
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
    CapacityError,
    InvalidInputError,
    OrthogonalTargetsError,
)
from .hamiltonian import (
    GroundAnalysis,
    LocalHamiltonian,
    assemble_step,
    ground_analysis,
)
from .limits import MAX_CHAIN_ROUNDS, as_count, check_dim, check_trials
from .linalg import ZERO_TOL
from .network import (
    InteractionGraph,
    PepsTensor,
    contract_partial,
    peps_state,
    restore_gauge,
)
from .streams import MEASUREMENTS, SeedStreams, StreamBatch, Uniforms

#: undo/retry rounds a chain draws one at a time before it continues its
#: stream in blocks (see :meth:`~peps_forge.streams.Uniforms.doubles`):
#: putting a numpy generator at the stream costs about four single draws
SCALAR_ROUNDS = 2
#: seeds :func:`run_seeds` draws the first shots of in one pass, so that
#: its arrays grow with this block, not with the sweep
SEED_BLOCK = 4096


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
            label="zero", probability=p_zero, state=inside * (1.0 / math.sqrt(p_zero))
        )
    return MeasurementOutcome(
        label="nonzero", probability=p_nonzero, state=resid * (1.0 / math.sqrt(p_nonzero))
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


@dataclass(slots=True)
class Lemma1StepCheck:
    """Overlap and norm-ratio bound comparison at one step.

    Slotted rather than frozen, like :class:`RunReport`: a report builds
    one per step. Treat it as read-only.
    """

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
    A ``tol`` below 0 or not finite is rejected, and the tensors validated
    by the first prefix contraction, before any work.
    """
    if not 0.0 <= tol < math.inf:
        raise InvalidInputError(f"tol must be finite and >= 0, got {tol}")
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


def check_zero_tol(zero_tol: float) -> None:
    """Reject a ``zero_tol`` outside ``(0, 0.5)``.

    From 1/2 up a branch can be within ``zero_tol`` of both 0 and 1, and
    :func:`_threshold` would never land a branch of probability 1/2.
    """
    if not 0.0 < zero_tol < 0.5:
        raise InvalidInputError(f"zero_tol must be in (0, 0.5), got {zero_tol}")


def _check_chain(p: float, max_alternations: int | None, zero_tol: float) -> None:
    """Reject a chain :func:`markov_simulate` cannot run: ``zero_tol`` or ``p``
    out of range, a negative cap, or no cap on a chain that never lands."""
    check_zero_tol(zero_tol)
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

    Each measurement consumes exactly one draw of ``rng`` and follows the
    ``zero_tol`` rules of :func:`measure_zero_energy`, so on the same
    stream the labels equal those of the full-space loop on the two targets
    whose squared overlap is ``p``. A chain with ``p <= zero_tol`` never
    lands, so it needs a finite cap. Any ``rng`` with ``random()`` serves
    and is drawn once per measurement; a
    :class:`~peps_forge.streams.Uniforms` stream is drawn so for the first
    measurement and :data:`SCALAR_ROUNDS` undo/retry rounds, then through
    its :meth:`~peps_forge.streams.Uniforms.doubles`, the same values in
    blocks. A cap that is not an ``int`` goes through
    :func:`~peps_forge.limits.as_count`; the drivers pass the ``int`` that
    :func:`_alternation_cap` checked once per run, which is taken as it is.
    """
    p = float(p)
    if type(max_alternations) is not int and max_alternations is not None:
        max_alternations = as_count(max_alternations, "max_alternations")
    _check_chain(p, max_alternations, zero_tol)
    land, stay = _threshold(p, zero_tol), _threshold(1.0 - p, zero_tol)
    draw = rng.random
    if draw() < land:
        return ("zero",)
    switch = SCALAR_ROUNDS if type(rng) is Uniforms else -1
    outcomes = ["nonzero"]
    alternations = 0
    while max_alternations is None or alternations < max_alternations:
        if alternations == switch:
            draw = rng.doubles().__next__
        alternations += 1
        if draw() < stay:  # the undo lands back on the old target
            if draw() < land:
                outcomes += ("zero", "zero")
                break
            outcomes += ("zero", "nonzero")
        elif draw() < stay:
            outcomes += ("nonzero", "zero")
            break
        else:
            outcomes += ("nonzero", "nonzero")
    return tuple(outcomes)


def markov_trials(
    p: float, max_alternations: int, trials: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized batch of :func:`markov_simulate` trajectories.

    Returns boolean ``terminated`` and integer ``measurements`` arrays of
    length ``trials``, at most :data:`~peps_forge.limits.MAX_TRIALS`.
    ``max_alternations * trials`` may not exceed
    :data:`~peps_forge.limits.MAX_CHAIN_ROUNDS`, checked before any draw.
    Statistics match the scalar simulation; the draw order differs, so
    individual trajectories are not comparable.
    """
    p = _check_p(p)
    max_alternations = as_count(max_alternations, "max_alternations")
    trials = as_count(trials, "trials")
    if trials < 1:
        raise InvalidInputError("trials must be >= 1")
    check_trials(trials)
    if max_alternations < 0:
        raise InvalidInputError("max_alternations must be >= 0")
    if max_alternations * trials > MAX_CHAIN_ROUNDS:
        raise CapacityError(f"max_alternations * trials must be at most {MAX_CHAIN_ROUNDS}")
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
    m = as_count(max_alternations, "max_alternations")
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
    num_vertices = as_count(num_vertices, "num_vertices")
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
    so it is an order-of-magnitude figure, not a promise. A size that is not
    an integer, or a bound past the float range, raises
    :class:`~peps_forge.errors.InvalidInputError`.
    """
    num_vertices = as_count(num_vertices, "num_vertices")
    num_edges = as_count(num_edges, "num_edges")
    phys_dim = as_count(phys_dim, "phys_dim")
    degree = as_count(degree, "degree")
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


def graph_cost_parameters(g: InteractionGraph) -> dict[str, int]:
    """The size parameters of :func:`cost_model` read off an interaction graph."""
    return {
        "num_vertices": g.num_vertices,
        "num_edges": len(g.edges),
        "phys_dim": max(g.physical_dims),
        "degree": g.degree_bound,
    }


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
    across seeds, and keeps what every run shares: each step's landing
    threshold, the :class:`VertexRecord` of a first shot that lands, the
    bounded-mode cap of each ``eps`` and the caps every step's chain has
    been checked against.

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
        check_zero_tol(zero_tol)
        # the reference state below needs the physical register product;
        # check it before any step is assembled or solved
        check_dim(math.prod(graph.physical_dims), "contracted state")
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
        # what every run shares at each step: the threshold a first draw must
        # fall below to land, and the record of a first shot that lands
        self._lands = tuple(_threshold(p, zero_tol) for p in self.overlaps)
        self._landed = tuple(
            VertexRecord(t, v, ("zero",), 1, 0, p, p, kappa, gap, True)
            for t, (v, p, kappa, gap) in enumerate(
                zip(graph.order, self.overlaps, self.step_kappas, self.gaps[1:])
            )
        )
        self._bounded_caps: dict[float, int] = {}
        self._checked_caps: set[int | None] = set()


@dataclass(frozen=True, slots=True)
class VertexRecord:
    """Measurement log for one processed vertex.

    Frozen, because the record of a first shot that lands is built once per
    instance and shared by every report that holds it.
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
    """Full account of one driver run, reproducible from (instance, seed).

    Slotted rather than frozen: a run builds one, and a frozen dataclass
    sets each field through ``object.__setattr__``. Treat it as read-only.
    """

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
    """The per-vertex alternation cap of a run (``None`` means none), with
    every step's chain checked against it once per instance."""
    if mode not in ("bounded", "until_success"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    if not 0.0 < eps < 1.0:
        raise InvalidInputError(f"failure budget must be in (0, 1), got {eps}")
    if max_alternations is not None:
        cap = as_count(max_alternations, "max_alternations")
    elif mode == "bounded":
        caps, eps = prepared._bounded_caps, float(eps)
        cap = caps.get(eps)
        if cap is None:
            n = prepared.graph.num_vertices
            cap = caps[eps] = required_alternations(prepared.kappa_max, n, eps)[1]
    else:
        cap = None
    if cap not in prepared._checked_caps:
        for p in prepared.overlaps:
            _check_chain(p, cap, prepared.zero_tol)
        prepared._checked_caps.add(cap)
    return cap


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
    ``prepared.fidelity``. Deterministic given ``seed``, an integer >= 0:
    vertex ``t`` of a run with seed ``s`` draws from numpy's PCG64 stream
    of ``SeedSequence(s, spawn_key=(0, t))``, reproduced bit for bit by
    :class:`~peps_forge.streams.SeedStreams`. A run builds one SeedSequence,
    for the seed's share of every stream; each vertex's
    :class:`~peps_forge.streams.Uniforms` is seeded from it by one
    :meth:`~peps_forge.streams.SeedStreams.pcg_state` call and draws the
    first shot. A first shot that lands takes the instance's shared record
    of that step; one that misses runs :func:`markov_simulate` from the
    stream's start, which continues a long chain in blocks on numpy's
    generator. The cap, the chain checks and the landing thresholds come
    from the instance (see :class:`PreparedInstance`). A cap
    ``max_alternations`` that is not an integer is rejected before any
    stream is seeded.
    """
    cap = _alternation_cap(prepared, eps, mode, max_alternations)
    pcg_state = SeedStreams(seed, MEASUREMENTS).pcg_state
    landed = prepared._landed
    records: list[VertexRecord] = []
    total = 0
    for t, land in enumerate(prepared._lands):
        start = pcg_state(t)
        if Uniforms(*start).random() < land:
            records.append(landed[t])
            total += 1
            continue
        step, p = landed[t], prepared.overlaps[t]
        outcomes = markov_simulate(p, cap, Uniforms(*start), prepared.zero_tol)
        count = len(outcomes)
        total += count
        success = outcomes[-1] == "zero"
        records.append(
            VertexRecord(
                t, step.vertex, outcomes, count, (count - 1) // 2,
                p, p, step.kappa, step.gap, success,
            )
        )
        if not success:
            break
    else:
        success = True
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
    per seed. For every :data:`SEED_BLOCK` seeds, one
    :class:`~peps_forge.streams.StreamBatch` pass takes the first draw of
    every (vertex, seed) stream in bulk. A trial whose first measurement
    lands is done with the vertex; one that misses runs
    :func:`markov_simulate` from its stream's start, as
    :func:`run_algorithm` does. A trial that spends the cap stops there; a
    stopped trial's later first draws are taken and never read.
    """
    cap = _alternation_cap(prepared, eps, mode, None)
    overlaps, zero_tol = prepared.overlaps, prepared.zero_tol
    lands = np.array(prepared._lands)[:, None]
    succeeded: list[bool] = []
    measurements: list[int] = []
    for lo in range(0, len(seeds), SEED_BLOCK):
        draws, stream = StreamBatch(seeds[lo : lo + SEED_BLOCK], MEASUREMENTS).first_draws(
            range(len(overlaps))
        )
        misses = draws >= lands
        live = np.ones(draws.shape[1], dtype=bool)
        totals = np.zeros(draws.shape[1], dtype=np.int64)
        for t, p in enumerate(overlaps):
            totals += live
            for k in np.flatnonzero(live & misses[t]).tolist():
                outcomes = markov_simulate(p, cap, stream(t, k), zero_tol)
                totals[k] += len(outcomes) - 1
                live[k] = outcomes[-1] == "zero"
        succeeded += live.tolist()
        measurements += totals.tolist()
    return succeeded, measurements


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
