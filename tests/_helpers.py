"""Shared construction helpers for the test suite."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from peps_forge import harness
from peps_forge.dynamics import (
    PreparedInstance,
    measure_zero_energy,
    required_alternations,
)
from peps_forge.errors import NumericalFailureError, OrthogonalTargetsError
from peps_forge.harness import (
    GraphSpec,
    InstanceConfig,
    TensorSpec,
    build_instance,
)
from peps_forge.linalg import ZERO_TOL, SingularDecomposition, SpectralDecomposition
from peps_forge.network import InteractionGraph, PepsTensor, restore_gauge

CHAIN2 = GraphSpec(topology="chain", length=2)
CHAIN3 = GraphSpec(topology="chain", length=3)
CHAIN4 = GraphSpec(topology="chain", length=4)
RING4 = GraphSpec(topology="ring", length=4)


def random_config(
    graph: GraphSpec,
    kappa_max: float,
    tensor_seed: int,
    bond_dim: int = 2,
    physical_dims: tuple[int, ...] | None = None,
    order: tuple[int, ...] | None = None,
    eps: float = 0.1,
    seed: int = 7,
) -> InstanceConfig:
    return InstanceConfig(
        graph=graph,
        bond_dim=bond_dim,
        tensors=TensorSpec(
            source="random",
            kappa_max=kappa_max,
            physical_dims=physical_dims,
            seed=tensor_seed,
        ),
        seed=seed,
        order=order,
        eps=eps,
    )


def random_instance(graph: GraphSpec, kappa_max: float, tensor_seed: int, **kw):
    return build_instance(random_config(graph, kappa_max, tensor_seed, **kw))


def count_pair_state_builds(monkeypatch) -> list[InteractionGraph]:
    """Record every graph whose cached pair state is built from now on.

    Also empties ``build_instance``'s graph memo, so that a graph whose pair
    state an earlier test built is not handed out again.
    """
    builds = []
    build = vars(InteractionGraph)["_pair_state"].func

    def counting_build(self):
        builds.append(self)
        return build(self)

    prop = functools.cached_property(counting_build)
    prop.__set_name__(InteractionGraph, "_pair_state")
    monkeypatch.setattr(InteractionGraph, "_pair_state", prop)
    harness._shape_graph.cache_clear()
    return builds


def random_hermitian(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (z + z.conj().T) / 2


def random_complex(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def svd_reconstruct(dec: SingularDecomposition) -> np.ndarray:
    """``u @ diag(sigma) @ vh`` of a single matrix's SVD."""
    return (dec.u * dec.sigma) @ dec.vh


def eig_reconstruct(dec: SpectralDecomposition) -> np.ndarray:
    """``V @ diag(eigenvalues) @ V^dagger`` of a Hermitian eigensystem."""
    v = dec.eigenvectors
    return (v * dec.eigenvalues) @ v.conj().T


def kernel_basis(dec: SpectralDecomposition, zero_tol: float = ZERO_TOL) -> np.ndarray:
    """Orthonormal columns spanning the eigenspaces with eigenvalue < zero_tol."""
    return dec.eigenvectors[:, dec.eigenvalues < zero_tol]


def two_svd_polar(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference polar form of a vertex map from two SVDs.

    One SVD yields the isometry and the symmetrized positive factor; a
    second SVD of the same matrix yields the singular values.
    """
    a = np.asarray(a, dtype=complex)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    psd = (vh.conj().T * s) @ vh
    sigma = np.linalg.svd(a, full_matrices=False)[1]
    return u @ vh, (psd + psd.conj().T) / 2, sigma


def haar_isometry(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(random_complex(rows, cols, rng))
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases.conj()


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    return haar_isometry(n, n, rng)


def per_vertex_tensors(
    graph: InteractionGraph, kappa_max: float, seed: int
) -> list[PepsTensor]:
    """Reference for ``harness.random_tensors``: each vertex on its own.

    One generator and one QR per Haar factor, drawn in the documented order:
    singular values (only for ``kappa_max > 1``), then the Gaussians of the
    left and the right factor. The polar factors come from these drawn
    factors, with no SVD of the map.
    """
    tensors = []
    for v in range(graph.num_vertices):
        rows, cols = graph.physical_dims[v], graph.register_dim(v)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, v)))
        if kappa_max == 1.0:
            sigmas = np.ones(cols)
        else:
            sigmas = rng.uniform(1.0 / kappa_max, 1.0, size=cols)
        left = haar_isometry(rows, cols, rng)
        right = haar_isometry(cols, cols, rng)
        vh = right.conj().T
        matrix = (left * sigmas) @ vh
        psd = (right * sigmas) @ vh
        descending = np.sort(sigmas)[::-1]
        tensors.append(PepsTensor(v, matrix, left @ vh, (psd + psd.conj().T) / 2, descending))
    return tensors


def _slot_labels(graph: InteractionGraph) -> dict[tuple[int, int], int]:
    """einsum label of each (vertex, edge) bond slot, from a fresh edge scan."""
    labels = {}
    for v in range(graph.num_vertices):
        at_v = sorted(
            (b if a == v else a, e) for e, (a, b) in enumerate(graph.edges) if v in (a, b)
        )
        for _, e in at_v:
            labels[v, e] = len(labels)
    return labels


def _pair_operands(graph: InteractionGraph, edges) -> list:
    """One ``eye(D) / sqrt(D)`` operand per listed edge, on its two slot labels."""
    labels = _slot_labels(graph)
    operands = []
    for e in edges:
        a, b = graph.edges[e]
        d = graph.bond_dims[e]
        operands += [np.eye(d, dtype=complex) / math.sqrt(d), [labels[a, e], labels[b, e]]]
    return operands


def einsum_pair_state(graph: InteractionGraph) -> np.ndarray:
    """Pair state from one einsum whose labels come from a fresh edge scan."""
    every = list(range(len(_slot_labels(graph))))
    return np.einsum(*_pair_operands(graph, range(len(graph.edges))), every).reshape(-1)


def einsum_restrict_pairs(graph: InteractionGraph, state: np.ndarray, edges) -> np.ndarray:
    """``state`` with the listed edges' slots contracted with their pairs, by one einsum."""
    labels = _slot_labels(graph)
    dims = [graph.bond_dims[e] for _, e in labels]
    kept = [i for (_, e), i in labels.items() if e not in edges]
    every = list(labels.values())
    operands = _pair_operands(graph, edges)
    return np.einsum(np.reshape(state, dims), every, *operands, kept).reshape(-1)


def einsum_expand_pairs(graph: InteractionGraph, state: np.ndarray, edges) -> np.ndarray:
    """The listed edges' pairs tensored into a restricted ``state``, by one einsum."""
    labels = _slot_labels(graph)
    kept = [i for (_, e), i in labels.items() if e not in edges]
    shape = [graph.bond_dims[e] for _, e in labels if e not in edges]
    every = list(labels.values())
    operands = _pair_operands(graph, edges)
    return np.einsum(np.reshape(state, shape), kept, *operands, every).reshape(-1)


def einsum_apply(op: np.ndarray, v: int, state: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """``op`` on register ``v`` of a state with register dimensions ``dims``."""
    letters = "abcdefghijklmnopqrstuvw"[: len(dims)]
    out = letters.replace(letters[v], "z")
    return np.einsum(f"z{letters[v]},{letters}->{out}", op, state.reshape(dims)).reshape(-1)


def vertex_rng(seed: int, step: int) -> np.random.Generator:
    """numpy's own construction of the stream ``run_algorithm`` gives vertex ``step``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, step)))


@dataclass(frozen=True)
class VectorRun:
    """What the full-space reference driver observed in one run."""

    outcomes: tuple[tuple[str, ...], ...]
    first_shot_probabilities: tuple[float, ...]
    success: bool
    total_measurements: int
    fidelity: float | None


def vector_driver(
    prepared: PreparedInstance,
    eps: float,
    seed: int,
    mode: str = "bounded",
    max_alternations: int | None = None,
) -> VectorRun:
    """Reference driver on state vectors: every measurement is a projection.

    Carries the register state through :func:`measure_zero_energy` on the
    certified targets, with each vertex's stream built by numpy itself
    (:func:`vertex_rng`), and restores the gauge of the final state, as the
    driver did before it ran in the plane.
    """
    n = prepared.graph.num_vertices
    if max_alternations is not None:
        cap = max_alternations
    elif mode == "bounded":
        _, cap = required_alternations(prepared.kappa_max, n, eps)
    else:
        cap = None
    zero_tol = prepared.zero_tol
    state = prepared.targets[0]
    outcomes, first_shots = [], []
    total = 0
    success = True
    for t in range(n):
        rng = vertex_rng(seed, t)
        psi_prev, psi_next = prepared.targets[t], prepared.targets[t + 1]
        out = measure_zero_energy(state, psi_next, rng, zero_tol)
        first_shots.append(
            out.probability if out.label == "zero" else 1.0 - out.probability
        )
        labels = [out.label]
        state = out.state
        alternations = 0
        while out.label == "nonzero" and (cap is None or alternations < cap):
            undo = measure_zero_energy(state, psi_prev, rng, zero_tol)
            out = measure_zero_energy(undo.state, psi_next, rng, zero_tol)
            labels += [undo.label, out.label]
            state = out.state
            alternations += 1
        outcomes.append(tuple(labels))
        total += len(labels)
        if out.label != "zero":
            success = False
            break
    fidelity = None
    if success:
        restored = restore_gauge(prepared.graph, prepared.tensors, state)
        fidelity = float(abs(np.vdot(restored, prepared.reference_state)) ** 2)
    return VectorRun(
        outcomes=tuple(outcomes),
        first_shot_probabilities=tuple(first_shots),
        success=success,
        total_measurements=total,
        fidelity=fidelity,
    )


#: targets closer than this to orthogonal stall the repair loop
MIN_OVERLAP = 1e-12

#: 1 - p below this counts as a fully aligned (trivial) plane
TRIVIAL_PLANE_TOL = 1e-12


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
