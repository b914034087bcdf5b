"""Step-indexed family of frustration-free Hamiltonians.

The growth procedure maintains, for every prefix of the vertex order, a sum
of local projector terms whose common kernel is exactly the intermediate
target state:

* before any vertex is processed, each edge carries a pair term penalizing
  everything orthogonal to its maximally entangled state;
* when a vertex is processed, all terms on its incident edges are replaced
  by parent terms built from the vertex's positive map (terms toward a
  not-yet-processed neighbor use the identity on that side and are
  temporary boundary terms);
* a per-vertex penalty term restricting to the physical subspace is added;
  in the canonical gauge the physical subspace is the whole register, so
  this term is identically zero but kept for bookkeeping fidelity.

A parent term for edge ``(u, v)`` with maps ``M_u, M_v`` is the projector
onto the orthogonal complement of ``(M_u (x) M_v)(omega_e (x) C^rest)``,
where ``omega_e`` is the edge's entangled pair and ``rest`` collects the
other virtual factors of the two registers. This is the unique two-register
projector family whose kernel is exactly the locally reachable subspace.

The spectral layer never forms a global matrix: :meth:`LocalHamiltonian.apply`
computes ``H x`` with one matrix product per nonzero term on the register
tensor. :func:`ground_analysis` certifies a given zero-energy state (the
contraction target) by its residual ``||H psi||`` and finds the gap with one
ARPACK solve on that product with the state deflated; called without a
state, it first finds one with a second solve, as an independent oracle. The
dense ``global_matrix`` and its full eigensystem ``spectral`` remain as an
oracle for tests at small dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg.blas import zgemm
from scipy.sparse.linalg import ArpackError, LinearOperator, eigs

from . import linalg
from .errors import (
    ConditioningError,
    DegenerateGroundSpaceError,
    InvalidInputError,
    NumericalFailureError,
)
from .limits import check_dim
from .linalg import ZERO_TOL
from .network import InteractionGraph, PepsTensor, check_tensors

#: Gram-matrix condition number beyond which an image basis is rejected
GRAM_COND_LIMIT = 1e12

#: largest certified infidelity between a zero-energy state and the kernel
KERNEL_INFIDELITY_TOL = 1e-9

TERM_KINDS = ("edge_pair", "parent", "boundary", "penalty")


@dataclass(frozen=True)
class LocalTerm:
    """One Hermitian PSD term acting on one or two vertex registers.

    ``matrix`` lives on the tensor product of the support registers in the
    listed (ascending) order. Pair/parent/boundary terms are orthogonal
    projectors; penalty terms are a positive multiple of one.
    """

    support: tuple[int, ...]
    matrix: np.ndarray
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in TERM_KINDS:
            raise InvalidInputError(f"unknown term kind {self.kind!r}")
        if len(self.support) not in (1, 2):
            raise InvalidInputError(f"support must have 1 or 2 registers, got {self.support}")
        if tuple(sorted(self.support)) != self.support:
            raise InvalidInputError(f"support {self.support} must be ascending")


def edge_term(bond_dim: int) -> np.ndarray:
    """Projector on two bond factors annihilating only their entangled pair.

    Returns the dense ``D^2 x D^2`` matrix ``1 - |omega><omega|`` where
    ``|omega> = (1/sqrt(D)) sum_i |ii>``; its rank is ``D^2 - 1``.
    """
    if bond_dim < 2:
        raise InvalidInputError(f"bond dimension must be >= 2, got {bond_dim}")
    omega = pair_vector(bond_dim)
    return np.eye(bond_dim**2, dtype=complex) - np.outer(omega, omega.conj())


def pair_vector(bond_dim: int) -> np.ndarray:
    """Unit vector ``(1/sqrt(D)) sum_i |ii>`` on two bond factors."""
    omega = np.zeros(bond_dim**2, dtype=complex)
    omega[:: bond_dim + 1] = 1.0 / math.sqrt(bond_dim)
    return omega


def _pair_support_layout(
    g: InteractionGraph, edge_id: int
) -> tuple[tuple[int, int], tuple[int, ...], tuple[int, int]]:
    """Factor layout of the two registers supporting ``edge_id``.

    Returns the support vertices ``(u, v)``, the combined factor dimensions
    (u's factors then v's factors, each in register order), and the
    positions of the edge's own two factors inside that combined list.
    """
    u, v = g.edges[edge_id]
    u_edges = g.incident_edges(u)
    v_edges = g.incident_edges(v)
    dims = tuple(g.bond_dims[e] for e in u_edges) + tuple(g.bond_dims[e] for e in v_edges)
    pos_u = u_edges.index(edge_id)
    pos_v = len(u_edges) + v_edges.index(edge_id)
    return (u, v), dims, (pos_u, pos_v)


def edge_term_on_registers(g: InteractionGraph, edge_id: int) -> LocalTerm:
    """Edge pair term embedded into the two full vertex registers.

    Direct construction (no orthonormalization): the local projector
    :func:`edge_term` tensored with the identity on the remaining virtual
    factors of both registers.
    """
    (u, v), dims, positions = _pair_support_layout(g, edge_id)
    matrix = linalg.embed_term(edge_term(g.bond_dims[edge_id]), positions, dims)
    return LocalTerm(support=(u, v), matrix=matrix, kind="edge_pair")


def parent_term(
    g: InteractionGraph,
    tensors: list[PepsTensor],
    edge_id: int,
    processed: frozenset[int] | set[int],
) -> LocalTerm:
    """Projector onto the complement of the reachable subspace of one edge.

    ``processed`` lists the vertices whose positive map already acts
    (including the vertex currently being processed). An endpoint outside
    ``processed`` keeps the identity map, which makes the term a temporary
    boundary term; with both endpoints unprocessed the term reduces to the
    plain edge pair term.
    """
    (u, v), dims, positions = _pair_support_layout(g, edge_id)
    d = g.bond_dims[edge_id]
    r_u, r_v = g.register_dim(u), g.register_dim(v)
    n_image = (r_u * r_v) // d**2

    # orthonormal basis of omega_e (x) C^rest, rows in natural factor order
    block = np.kron(pair_vector(d)[:, None], np.eye(n_image, dtype=complex))
    basis = linalg.embed_columns(block, positions, dims)

    m_u = tensors[u].positive_factor if u in processed else np.eye(r_u, dtype=complex)
    m_v = tensors[v].positive_factor if v in processed else np.eye(r_v, dtype=complex)
    mapped = np.kron(m_u, m_v) @ basis

    gram = mapped.conj().T @ mapped
    spec = linalg.hermitian_eig(gram)
    gamma = spec.eigenvalues
    if gamma[0] <= 0.0 or gamma[-1] / gamma[0] > GRAM_COND_LIMIT:
        raise ConditioningError(
            f"image basis of edge {edge_id} is ill-conditioned: "
            f"Gram eigenvalues in [{gamma[0]:.3e}, {gamma[-1]:.3e}]"
        )
    ortho = mapped @ (spec.eigenvectors / np.sqrt(gamma))
    projector = ortho @ ortho.conj().T
    matrix = np.eye(r_u * r_v, dtype=complex) - projector
    matrix = (matrix + matrix.conj().T) / 2

    n_proc = (u in processed) + (v in processed)
    kind = {0: "edge_pair", 1: "boundary", 2: "parent"}[n_proc]
    return LocalTerm(support=(u, v), matrix=matrix, kind=kind)


def penalty_term(vertex: int, p_phy: np.ndarray, c: float) -> LocalTerm:
    """Energy penalty ``c (1 - P_phy)`` on the complement of the physical subspace.

    With ``P_phy`` equal to the identity (canonical gauge) the term is the
    zero matrix.
    """
    if c <= 0:
        raise InvalidInputError(f"penalty weight must be positive, got {c}")
    p = linalg.as_matrix(p_phy, "physical projector")
    if p.shape[0] != p.shape[1]:
        raise InvalidInputError("physical projector must be square")
    matrix = c * (np.eye(p.shape[0], dtype=complex) - p)
    matrix = (matrix + matrix.conj().T) / 2
    return LocalTerm(support=(vertex,), matrix=matrix, kind="penalty")


def _term_sort_key(term: LocalTerm) -> tuple:
    return (term.kind == "penalty", term.support)


class LocalHamiltonian:
    """Sum of local terms at one step of the growth procedure.

    :meth:`apply` multiplies a state by the sum without forming it. The
    dense global matrix and its eigensystem are an oracle for tests: they
    are assembled only when read, then cached; instances are otherwise
    immutable.
    """

    def __init__(self, graph: InteractionGraph, step: int, terms: list[LocalTerm]):
        self.graph = graph
        self.step = step
        self.terms = tuple(sorted(terms, key=_term_sort_key))
        # per nonzero term: the transposed matrix, the support-first register
        # permutation, the permuted register shape and the inverse permutation
        dims = graph.register_dims
        self._plan = []
        for term in self.terms:
            if not term.matrix.any():
                continue
            rest = [r for r in range(len(dims)) if r not in term.support]
            perm = [*term.support, *rest]
            self._plan.append(
                (
                    np.ascontiguousarray(term.matrix, dtype=complex).T,
                    perm,
                    [dims[r] for r in perm],
                    np.argsort(perm),
                )
            )

    @cached_property
    def global_matrix(self) -> np.ndarray:
        check_dim(self.graph.global_dim, f"Hamiltonian at step {self.step}")
        dims = self.graph.register_dims
        total = self.graph.global_dim
        out = np.zeros((total, total), dtype=complex)
        for term in self.terms:
            out += linalg.embed_term(term.matrix, term.support, dims)
        return out

    @cached_property
    def spectral(self) -> linalg.SpectralDecomposition:
        return linalg.hermitian_eig(self.global_matrix)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``H @ x`` summed term by term on the register tensor.

        Each nonzero term costs one transpose-copy of the state with its
        support registers first, one matrix product at O(N r_u r_v), and one
        transposed add. Identically zero terms, such as the penalty terms of
        the canonical gauge, were dropped when the Hamiltonian was built.
        """
        tensor = np.asarray(x, dtype=complex).reshape(self.graph.register_dims)
        out = np.zeros_like(tensor)
        for op_t, perm, shape, inverse in self._plan:
            block = tensor.transpose(perm).reshape(len(op_t), -1)
            # (M @ block).T = block.T @ M.T on F-contiguous views, no copies.
            # scipy's zgemm rather than numpy's matmul: numpy and scipy each
            # bundle their own OpenBLAS, and ARPACK runs on scipy's; with
            # both products on one pool, the other pool's idle threads do not
            # spin against it between matrix-vector products.
            product = zgemm(1.0, block.T, op_t)
            out += product.T.reshape(shape).transpose(inverse)
        return out.reshape(-1)


@dataclass(frozen=True)
class GroundAnalysis:
    """Spectral summary of one step Hamiltonian."""

    lambda0: float
    lambda1: float
    gap: float
    ground_degeneracy: int
    ground_state: np.ndarray


def assemble_step(
    g: InteractionGraph,
    tensors: list[PepsTensor],
    t: int,
    c: float = 1.0,
) -> LocalHamiltonian:
    """Build the step-``t`` Hamiltonian from scratch.

    Step 0 holds one pair term per edge; step ``t`` has every edge term
    rebuilt with the positive maps of the first ``t`` vertices in the order,
    plus one penalty term per processed vertex.
    """
    if not 0 <= t <= g.num_vertices:
        raise InvalidInputError(f"step {t} out of range 0..{g.num_vertices}")
    check_tensors(g, tensors)
    processed = frozenset(g.order[:t])
    terms = [parent_term(g, tensors, eid, processed) for eid in range(len(g.edges))]
    for v in g.order[:t]:
        r = g.register_dim(v)
        terms.append(penalty_term(v, np.eye(r, dtype=complex), c))
    return LocalHamiltonian(graph=g, step=t, terms=terms)


def _lowest_eigenpair(dim: int, matvec) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and unit eigenvector of a Hermitian operator.

    One single-vector ARPACK solve from a fixed start vector. ARPACK's
    stopping test is relative to the Ritz value, so it runs on the operator
    plus the identity: an eigenvalue near zero then converges to machine
    precision absolutely instead of over-converging relative to zero.
    ``eigs`` is called directly because for complex input ``eigsh`` forwards
    to it without ``rng``, and ARPACK would draw restart vectors from fresh
    entropy.
    """
    op = LinearOperator((dim, dim), matvec=lambda x: matvec(x) + x, dtype=complex)
    v0 = np.random.default_rng(0).standard_normal(dim).astype(complex)
    try:
        w, v = eigs(op, k=1, which="SR", v0=v0, rng=np.random.default_rng(0))
    except ArpackError as exc:
        raise NumericalFailureError(f"ARPACK solve did not converge: {exc}") from exc
    return float(w[0].real) - 1.0, v[:, 0] / np.linalg.norm(v[:, 0])


def ground_analysis(
    h: LocalHamiltonian, zero_tol: float = ZERO_TOL, kernel: np.ndarray | None = None
) -> GroundAnalysis:
    """Certified zero-energy state and gap, matrix-free.

    ``kernel`` is a candidate zero-energy state, such as the contraction
    target of the step; without one, ``psi0`` comes from a Krylov solve on
    :meth:`LocalHamiltonian.apply` (the independent oracle path). Either
    way the state ``psi`` must have residual ``r = ||H psi|| <= zero_tol``,
    and ``lambda0`` is its energy. ``lambda1`` comes from one solve with
    ``psi`` deflated, ``(1 - P) H (1 - P) + s P`` with ``P = |psi><psi|``
    and ``s`` above ``||H||``: a second zero-energy state then appears as
    the deflated operator's lowest eigenvalue, which a single-vector
    two-eigenvalue solve can miss. Since ``lambda1`` is at most the second
    eigenvalue of ``H``, ``(r / lambda1)**2`` bounds the infidelity between
    ``psi`` and the true kernel vector; it must not exceed
    :data:`KERNEL_INFIDELITY_TOL`.

    Raises :class:`NumericalFailureError` when the state is not a
    zero-energy state (the parent construction guarantees one), the
    infidelity bound fails or the solver fails, and
    :class:`DegenerateGroundSpaceError` when the kernel is degenerate,
    which means the injectivity assumption fails for this instance and
    vertex order.
    """
    dim = h.graph.global_dim
    check_dim(dim, f"Hamiltonian at step {h.step}")
    if kernel is None:
        _, psi = _lowest_eigenpair(dim, h.apply)
    else:
        psi = np.asarray(kernel, dtype=complex)
        psi = psi / np.linalg.norm(psi)
    h_psi = h.apply(psi)
    residual = float(np.linalg.norm(h_psi))
    if residual > zero_tol:
        raise NumericalFailureError(
            f"step {h.step}: no zero-energy state (residual ||H psi|| = {residual:.3e})"
        )
    lambda0 = float(np.vdot(psi, h_psi).real)
    s = 1.0 + sum(np.linalg.norm(term.matrix, 2) for term in h.terms)  # > ||H||

    def deflated(x: np.ndarray) -> np.ndarray:
        c = np.vdot(psi, x)
        y = h.apply(x - c * psi)
        return y - np.vdot(psi, y) * psi + (s * c) * psi

    lambda1, _ = _lowest_eigenpair(dim, deflated)
    if lambda1 < zero_tol:
        raise DegenerateGroundSpaceError(
            f"step {h.step}: ground space is degenerate (second eigenvalue "
            f"{lambda1:.3e}); the intermediate state is not unique for this "
            "vertex order"
        )
    infidelity = (residual / lambda1) ** 2
    if infidelity > KERNEL_INFIDELITY_TOL:
        raise NumericalFailureError(
            f"step {h.step}: zero-energy state is certified only to infidelity "
            f"{infidelity:.3e} (residual {residual:.3e}, gap {lambda1:.3e})"
        )
    return GroundAnalysis(
        lambda0=lambda0,
        lambda1=lambda1,
        gap=lambda1 - lambda0,
        ground_degeneracy=1,
        ground_state=psi,
    )


def terms_to_json(h: LocalHamiltonian) -> list[dict]:
    """Serialize the term list for external verification.

    Complex entries become ``[re, im]`` pairs; matrices are nested row-major
    lists.
    """
    out = []
    for term in h.terms:
        matrix = [
            [[float(x.real), float(x.imag)] for x in row] for row in term.matrix
        ]
        out.append({"support": list(term.support), "kind": term.kind, "matrix": matrix})
    return out
