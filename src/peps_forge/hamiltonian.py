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
* the paper's per-vertex penalty ``c (1 - P_phy)`` is not built: in the
  canonical gauge the physical subspace is the whole register, so the term
  is the zero matrix.

A parent term for edge ``(u, v)`` with maps ``M_u, M_v`` is the projector
onto the orthogonal complement of ``(M_u (x) M_v)(omega_e (x) C^rest)``,
where ``omega_e`` is the edge's entangled pair and ``rest`` collects the
other virtual factors of the two registers: the two maps contracted over
their shared bond. This is the unique two-register projector family whose
kernel is exactly the locally reachable subspace.

The spectral layer never forms a global matrix: :meth:`LocalHamiltonian.apply`
computes ``H x`` with one gather, one matrix product and one scatter per term.
:func:`ground_analysis` certifies a given zero-energy state (the contraction
target) by its full residual ``||H psi||`` and finds the gap with at most one
Lanczos solve on that product in the state's orthogonal complement, stopped at
the absolute residual :data:`GAP_RESIDUAL_TOL` and optionally warm-started from
the previous step's Ritz vector. The solve tests its Ritz pair on a schedule:
from 20 products on, a failed test predicts from the residual's decay how many
products the stop is away and runs :data:`RITZ_SKIP` of them before the next
test. Only a solve whose space fits in one basis of :data:`KRYLOV_BASIS`
vectors orthogonalises each new vector against the whole basis; a larger one
keeps the three-term recurrence and projects out the locked state alone, since
the vectors lose orthogonality only along converged Ritz vectors (Paige 1980),
and a gap solve stops there. Its fixed random start vector is drawn once per
dimension and kept read-only. An assembled step knows its edges with no
processed endpoint, which still hold their bare pair terms; the solve runs on the
:attr:`LocalHamiltonian.restricted` Hamiltonian of the other edges (the same
``apply`` on a smaller register layout) and the free pairs enter in closed
form: one gather takes them out of the state and the start, one scatter puts
them back into the Ritz vector, all through one
:class:`~peps_forge.network.PairSlots` index per step.
Called without a state, it first finds one with a second solve, stopped at
:data:`KRYLOV_TOL`, both on the full space, as an independent oracle. scipy
(BLAS and LAPACK) is imported on first use of this layer. Vectors are
normalised by the reciprocal of their norm, as in :mod:`~peps_forge.network`.
:func:`parent_term` contracts the two maps with one einsum and orthonormalises
the result with one thin SVD; a pair form (no processed endpoint) needs none,
its columns ``omega (x) 1`` being orthonormal already. The dense
``global_matrix`` and its full eigensystem ``spectral``, the layer's only
Hermitian eigensolve, remain as an oracle for tests at small dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from . import linalg
from .errors import (
    ConditioningError,
    DegenerateGroundSpaceError,
    InvalidInputError,
    NumericalFailureError,
)
from .limits import check_dim
from .linalg import ZERO_TOL
from .network import InteractionGraph, PepsTensor, check_tensors, pair_slots

#: condition number of an image basis's Gram matrix, ``(sigma_max /
#: sigma_min)**2`` of the basis, beyond which :func:`parent_term` rejects it
GRAM_COND_LIMIT = 1e12

#: largest certified infidelity between a zero-energy state and the kernel
KERNEL_INFIDELITY_TOL = 1e-9

#: Lanczos stopping tolerance of a ground-state solve, relative to ``theta + 1``
KRYLOV_TOL = 1e-10

#: largest Ritz residual, absolute, at which a gap solve stops
GAP_RESIDUAL_TOL = 5e-9

#: most Lanczos vectors kept; a full basis restarts from its Ritz vector
KRYLOV_BASIS = 64

#: matrix-vector products after which a Lanczos solve fails
KRYLOV_MAX_PRODUCTS = 5000

#: weight of the fixed random vector added to a unit warm start
START_NOISE = 0.1

#: share of the products that a failed Ritz test predicts to the stop, which
#: the solve runs before its next test (at least one)
RITZ_SKIP = 0.5

TERM_KINDS = ("edge_pair", "parent", "boundary")


@dataclass(frozen=True)
class LocalTerm:
    """One orthogonal projector acting on the two vertex registers of an edge.

    ``matrix`` lives on the tensor product of the two support registers in
    the listed (ascending) order.
    """

    support: tuple[int, int]
    matrix: np.ndarray
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in TERM_KINDS:
            raise InvalidInputError(f"unknown term kind {self.kind!r}")
        if len(self.support) != 2 or self.support != tuple(sorted(set(self.support))):
            raise InvalidInputError(
                f"support must be two ascending registers, got {self.support}"
            )


def edge_term(bond_dim: int) -> np.ndarray:
    """Projector on two bond factors annihilating only their entangled pair.

    Returns the dense ``D^2 x D^2`` matrix ``1 - |omega><omega|`` where
    ``|omega> = (1/sqrt(D)) sum_i |ii>``; its rank is ``D^2 - 1``.
    """
    if bond_dim < 2:
        raise InvalidInputError(f"bond dimension must be >= 2, got {bond_dim}")
    omega = np.eye(bond_dim, dtype=complex).reshape(-1) / math.sqrt(bond_dim)
    return np.eye(bond_dim**2, dtype=complex) - np.outer(omega, omega)


def edge_term_on_registers(g: InteractionGraph, edge_id: int) -> LocalTerm:
    """Edge pair term embedded into the two full vertex registers.

    Direct construction (no orthonormalization): the local projector
    :func:`edge_term` tensored with the identity on the remaining virtual
    factors of both registers, u's factors then v's, each in register order.
    """
    u, v = g.edges[edge_id]
    u_edges, v_edges = g.incident_edges(u), g.incident_edges(v)
    dims = tuple(g.bond_dims[e] for e in u_edges + v_edges)
    positions = (u_edges.index(edge_id), len(u_edges) + v_edges.index(edge_id))
    matrix = linalg.embed_term(edge_term(g.bond_dims[edge_id]), positions, dims)
    return LocalTerm(support=(u, v), matrix=matrix, kind="edge_pair")


def parent_term(
    g: InteractionGraph,
    tensors: list[PepsTensor],
    edge_id: int,
    processed: frozenset[int] | set[int],
) -> LocalTerm:
    """Projector onto the complement of the reachable subspace of one edge.

    The subspace is ``(M_u (x) M_v)(omega_e (x) C^rest)``: each endpoint's
    map, reshaped to ``(r, rest, d)`` with the edge's bond slot last, is
    contracted with the other's over that slot, which spans it with one
    column per index of the two registers' other factors. ``processed``
    lists the vertices whose positive map already acts (including the
    vertex currently being processed). An endpoint outside ``processed``
    keeps the identity map, which makes the term a temporary boundary term;
    with both endpoints unprocessed the term reduces to the plain edge pair
    term, whose columns ``omega (x) 1`` are already orthonormal. Otherwise
    the columns are orthonormalised by one thin SVD and rejected as
    ill-conditioned beyond :data:`GRAM_COND_LIMIT`.
    """
    u, v = g.edges[edge_id]
    d = g.bond_dims[edge_id]
    maps = []
    for w in (u, v):
        r = g.register_dim(w)
        m = tensors[w].positive_factor if w in processed else np.eye(r, dtype=complex)
        slots = g.incident_edges(w)
        before = math.prod(g.bond_dims[e] for e in slots[: slots.index(edge_id)])
        # (r, slots before, edge, slots after) -> (r, other slots, edge)
        maps.append(m.reshape(r, before, d, -1).transpose(0, 1, 3, 2).reshape(r, -1, d))
    r_u, r_v = g.register_dim(u), g.register_dim(v)
    basis = (np.einsum("aik,bjk->abij", *maps) / math.sqrt(d)).reshape(r_u * r_v, -1)
    n_proc = (u in processed) + (v in processed)
    if n_proc:  # with both maps the identity, the columns are omega (x) 1: orthonormal
        dec = linalg.svd(basis)
        sigma = dec.sigma
        if not sigma[-1] > 0.0 or (sigma[0] / sigma[-1]) ** 2 > GRAM_COND_LIMIT:
            raise ConditioningError(
                f"image basis of edge {edge_id} is ill-conditioned: "
                f"singular values in [{sigma[-1]:.3e}, {sigma[0]:.3e}]"
            )
        basis = dec.u
    matrix = np.eye(r_u * r_v, dtype=complex) - basis @ basis.conj().T
    kind = {0: "edge_pair", 1: "boundary", 2: "parent"}[n_proc]
    return LocalTerm(support=(u, v), matrix=matrix, kind=kind)


@cache
def _support_first(dims: tuple[int, ...], support: tuple[int, int]) -> tuple:
    """Read-only ``gather, scatter``: ``x[gather]`` is the state's register tensor
    transposed support first, flattened; ``y[scatter]`` undoes it."""
    perm = [*support, *(r for r in range(len(dims)) if r not in support)]
    if perm == sorted(perm):  # already support first: views, no copies
        return slice(None), slice(None)
    index = np.arange(math.prod(dims))
    gather = index.reshape(dims).transpose(perm).ravel()
    scatter = index.reshape([dims[r] for r in perm]).transpose(np.argsort(perm)).ravel()
    gather.flags.writeable = scatter.flags.writeable = False
    return gather, scatter


class LocalHamiltonian:
    """Sum of local terms at one step of the growth procedure.

    :meth:`apply` multiplies a state by the sum without forming it. The
    dense global matrix and its eigensystem are an oracle for tests: they
    are assembled only when read, then cached; instances are otherwise
    immutable. ``pair_edges`` lists the edges whose term is their bare pair
    term :func:`edge_term` and on whose bond slots no other term acts
    (other than as the identity); :func:`assemble_step` fills it, and a
    Hamiltonian built by hand leaves it empty and is always solved on the
    full space.
    """

    def __init__(
        self,
        graph: InteractionGraph,
        step: int,
        terms: list[LocalTerm],
        pair_edges: tuple[int, ...] = (),
    ):
        self.graph = graph
        self.step = step
        self.terms = tuple(sorted(terms, key=lambda term: term.support))
        self.pair_edges = tuple(pair_edges)
        # imported on first use, not with the package: loading scipy costs
        # commands that never build a Hamiltonian most of their start-up
        from scipy.linalg.blas import zgemm

        self._zgemm = zgemm
        # per term: the transposed matrix and the support-first index arrays
        self._plan = [
            (
                np.ascontiguousarray(term.matrix, dtype=complex).T,
                *_support_first(graph.register_dims, term.support),
            )
            for term in self.terms
        ]

    @cached_property
    def restricted(self) -> LocalHamiltonian:
        """The terms off the pair edges, on the graph without those edges.

        Each remaining term is the block of its matrix at index 0 of the
        pair edges' slots in its support, on which it acts as the identity.
        Needs at least one edge outside ``pair_edges``.
        """
        g = self.graph
        pairs = self.pair_edges
        kept = [e for e in range(len(g.edges)) if e not in pairs]
        sub = InteractionGraph(
            g.num_vertices,
            tuple(g.edges[e] for e in kept),
            tuple(g.bond_dims[e] for e in kept),
            g.physical_dims,
            g.order,
        )
        terms = []
        for term in self.terms:
            if term.support in (g.edges[e] for e in pairs):
                continue
            slots = [e for v in term.support for e in g.incident_edges(v)]
            dims = [g.bond_dims[e] for e in slots]
            index = tuple(0 if e in pairs else slice(None) for e in slots)
            n = math.prod(d for d, e in zip(dims, slots) if e not in pairs)
            block = term.matrix.reshape(dims * 2)[index * 2].reshape(n, n)
            terms.append(LocalTerm(term.support, block, term.kind))
        return LocalHamiltonian(sub, self.step, terms)

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

        Per term: one gather of the state with its support registers first,
        one product at O(N r_u r_v), one scatter back, added in place.
        """
        x = np.asarray(x, dtype=complex).reshape(self.graph.global_dim)
        out = None
        for op_t, gather, scatter in self._plan:
            block = x[gather].reshape(len(op_t), -1)
            # (M @ block).T = block.T @ M.T on F-contiguous views, no copies.
            # scipy's zgemm rather than numpy's matmul: numpy and scipy each
            # bundle their own OpenBLAS, and the Lanczos solve runs on scipy's;
            # with all products on one pool, the other pool's idle threads do
            # not spin against it between matrix-vector products.
            y = self._zgemm(1.0, block.T, op_t).T.reshape(-1)[scatter]
            out = y if out is None else np.add(out, y, out=out)
        return out


@dataclass(frozen=True)
class GroundAnalysis:
    """Spectral summary of one step Hamiltonian.

    ``ground_state`` is the certified zero-energy state. ``excited_state``
    is the gap solve's unit Ritz vector on the full space (tensored back
    with the free pairs), made exactly orthogonal to ``ground_state``: an
    eigenvector of energy ``lambda1``, or of the solved energy above it
    when the free pairs set ``lambda1 = 1``. It warm-starts the next step's
    solve, and is ``None`` when nothing was solved (step 0).
    """

    lambda0: float
    lambda1: float
    gap: float
    ground_degeneracy: int
    ground_state: np.ndarray
    excited_state: np.ndarray | None


def assemble_step(
    g: InteractionGraph,
    tensors: list[PepsTensor],
    t: int,
    cache: dict | None = None,
) -> LocalHamiltonian:
    """Build the step-``t`` Hamiltonian: one projector per edge.

    Step 0 holds one pair term per edge; step ``t`` has every edge term
    built with the positive maps of the first ``t`` vertices in the order.
    An edge's term depends only on its processed endpoints; ``cache``,
    shared by the steps of one ``(g, tensors)``, keeps it by ``(edge,
    processed endpoints)``.
    """
    if not 0 <= t <= g.num_vertices:
        raise InvalidInputError(f"step {t} out of range 0..{g.num_vertices}")
    check_tensors(g, tensors)
    processed = frozenset(g.order[:t])
    cache = {} if cache is None else cache
    terms = []
    for eid, edge in enumerate(g.edges):
        key = (eid, processed.intersection(edge))
        if key not in cache:
            cache[key] = parent_term(g, tensors, eid, processed)
        terms.append(cache[key])
    pairs = tuple(e for e, edge in enumerate(g.edges) if processed.isdisjoint(edge))
    return LocalHamiltonian(graph=g, step=t, terms=terms, pair_edges=pairs)


@cache
def _fixed_draw(dim: int) -> np.ndarray:
    """Read-only: the first vector of length ``dim`` from the fixed generator
    ``default_rng(0)``, as complex numbers."""
    v = np.random.default_rng(0).standard_normal(dim).astype(complex)
    v.flags.writeable = False
    return v


def _fresh_vectors(dim: int):
    """The fixed generator's vectors of length ``dim`` after :func:`_fixed_draw`'s;
    the generator is built on the first ``next``."""
    rng = np.random.default_rng(0)
    rng.standard_normal(dim)
    while True:
        yield rng.standard_normal(dim).astype(complex)


def _start_vector(dim: int, start=None) -> np.ndarray:
    """A new array: the fixed vector ``r`` (:func:`_fixed_draw`), or ``start /
    |start| + START_NOISE * r / |r|``."""
    r = _fixed_draw(dim)
    if start is None:
        return r.copy()
    return start * (1.0 / np.linalg.norm(start)) + START_NOISE * r * (1.0 / np.linalg.norm(r))


def _lowest_eigenpair(
    dim: int, matvec, start: np.ndarray | None = None, lock: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and unit eigenvector of a Hermitian operator.

    Lanczos in the orthogonal complement of the unit vector ``lock`` if one
    is given, from :func:`_start_vector`.
    The random part of the start gives every eigenvector a weight: a Krylov
    space never leaves an invariant subspace that holds its start, and a
    warm start can lie in one (an excitation of one component of a
    disconnected graph). That part is the fixed generator's first vector of
    the dimension, drawn once per dimension (:func:`_fixed_draw`); on a
    breakdown the solve goes on from the same generator's next vectors,
    built only then (:func:`_fresh_vectors`).

    Only a space that fits in one basis (``dim - locked <= KRYLOV_BASIS``)
    can be exhausted, and the exhaustion exit ``m == dim - locked`` needs an
    orthonormal basis: there each new vector is orthogonalised against the
    lock and the basis by classical Gram–Schmidt, two ``zgemv`` calls (a
    second pass only when the first cancelled). A larger solve keeps the
    three-term recurrence and projects out the lock alone, with one
    ``zdotc`` and one ``zaxpy``: the lock is the lowest eigenvector, along
    which rounding would grow. Without reorthogonalisation the Lanczos
    vectors lose orthogonality only along Ritz vectors that have converged,
    and the loss only repeats their Ritz values (Paige 1976, 1980; Parlett
    1998, ch. 13); a gap solve stops at ``GAP_RESIDUAL_TOL``, where that loss
    begins. A breakdown still orthogonalises its fresh vector against the
    whole basis.

    From ``min(20, dim - locked)`` products on (ARPACK's ``ncv``), the solve
    tests the Ritz pair of the tridiagonal ``T``. A locked (gap) solve stops
    once the Ritz residual ``rho`` is at most ``GAP_RESIDUAL_TOL``: an
    eigenvalue lies within ``rho`` of ``theta``, and Kato–Temple bounds the
    error by ``rho**2 / delta``, ``delta`` the distance to the rest of the
    spectrum (Parlett 1998). An unlocked solve, whose vector gets certified,
    stops at ``KRYLOV_TOL * (theta + 1)``, ARPACK's test on ``H + 1``. The
    tests run on a schedule: after a failed one, ``rho`` fell by some factor
    ``r`` per product since the test before, so ``log(tol / rho) / log r``
    more products are predicted to the stop, and the solve runs
    :data:`RITZ_SKIP` of them, at least one, before it tests again (one
    when ``rho`` did not fall, or after the first test). A full basis and
    an exhausted space are always tested. The Krylov vectors do not depend
    on the tests, so a skipped test can only move a stop later, never
    earlier. A full basis restarts from its Ritz vector (thick restart with
    one vector, Wu & Simon 2000). All products run on scipy's BLAS, like
    ``LocalHamiltonian.apply``'s; the three-term recurrence subtracts in
    place with ``zaxpy``.
    """
    from scipy.linalg.blas import dznrm2, zaxpy, zdotc, zgemv
    from scipy.linalg.lapack import dstebz, dstein

    v = _start_vector(dim, start)
    fresh = _fresh_vectors(dim)
    locked = int(lock is not None)
    full = dim - locked <= KRYLOV_BASIS  # only such a basis can exhaust the space
    basis = np.empty((dim, locked + KRYLOV_BASIS), dtype=complex, order="F")
    if locked:
        basis[:, 0] = lock
    diag, off = np.zeros(KRYLOV_BASIS), np.zeros(KRYLOV_BASIS)  # T; off[i] couples i, i + 1

    def orthogonalize(w: np.ndarray, k: int) -> tuple[np.ndarray, float]:
        """``w`` minus its part in the first ``k`` columns, and its norm."""
        norm = dznrm2(w)
        for _ in range(2 if k else 0):  # a second pass only if the first cancelled
            # one column of a larger solve: one zdotc and one zaxpy; a small
            # solve keeps zgemv, whose bits the chain3 report pins
            if k == 1 and not full:
                w = zaxpy(basis[:, 0], w, a=-zdotc(basis[:, 0], w))
            else:
                q = basis[:, :k]
                w = zgemv(-1.0, q, zgemv(1.0, q, w, trans=2), beta=1.0, y=w, overwrite_y=1)
            before, norm = norm, dznrm2(w)
            if norm >= 0.7 * before:
                break
        return w, norm

    def ritz(m: int) -> tuple[float, np.ndarray]:
        """Lowest eigenpair of the leading ``m x m`` block of ``T``."""
        d, e = diag[:m], off[: max(m - 1, 1)]
        _, theta, block, split, info = dstebz(d, e, 2, 0.0, 0.0, 1, 1, 0.0, b"B")
        s, vector_info = dstein(d, e, theta[:1], block, split)
        if info or vector_info:
            raise NumericalFailureError(f"tridiagonal eigensolver failed: {info}, {vector_info}")
        return float(theta[0]), s[:, 0]

    v, norm = orthogonalize(v, locked)
    basis[:, locked] = v * (1.0 / norm)
    k, scale = locked + 1, 0.0
    next_test, last = min(20, dim - locked), None  # last: (products, rho) of the last test
    for products in range(1, KRYLOV_MAX_PRODUCTS + 1):
        m = k - locked
        v = basis[:, k - 1]
        w = matvec(v)
        scale = max(scale, dznrm2(w))
        if m > 1:
            w = zaxpy(basis[:, k - 2], w, a=-off[m - 2])
        diag[m - 1] = zdotc(v, w).real
        w = zaxpy(v, w, a=-diag[m - 1])
        w, beta = orthogonalize(w, k if full else locked)
        if products >= next_test or m in (KRYLOV_BASIS, dim - locked):
            theta, s = ritz(m)
            rho = beta * abs(s[-1])
            tol = GAP_RESIDUAL_TOL if locked else KRYLOV_TOL * (theta + 1.0)
            if m == dim - locked or rho <= tol:
                y = zgemv(1.0, basis[:, locked:k], s.astype(complex))
                return theta, y * (1.0 / dznrm2(y))
            skip = 1
            if last is not None and rho < last[1]:
                decay = math.log(rho / last[1]) / (products - last[0])  # log r
                skip = max(1, math.floor(RITZ_SKIP * math.log(tol / rho) / decay))
            next_test, last = products + skip, (products, rho)
        coupling = beta if beta > 1e-12 * scale else 0.0
        if not coupling:  # breakdown: go on from a fresh vector orthogonal to the basis
            w, beta = orthogonalize(next(fresh), k)
        w *= 1.0 / beta
        if m == KRYLOV_BASIS:  # restart from the Ritz vector
            y = zgemv(1.0, basis[:, locked:k], s.astype(complex))
            basis[:, locked] = y * (1.0 / dznrm2(y))
            diag[0], coupling, k, m = theta, coupling * s[-1], locked + 1, 1
        off[m - 1] = coupling
        basis[:, k] = w
        k += 1
    raise NumericalFailureError(f"Lanczos solve did not converge in {products} products")


def ground_analysis(
    h: LocalHamiltonian,
    zero_tol: float = ZERO_TOL,
    kernel: np.ndarray | None = None,
    start: np.ndarray | None = None,
) -> GroundAnalysis:
    """Certified zero-energy state and gap, matrix-free.

    ``kernel`` is a candidate zero-energy state, such as the contraction
    target of the step; without one, ``psi0`` comes from a Krylov solve on
    :meth:`LocalHamiltonian.apply` (the independent oracle path). Either
    way the state ``psi`` must have residual ``r = ||H psi|| <= zero_tol``,
    and ``lambda0`` is its energy. ``lambda1`` comes from one solve locked
    on ``psi``, in its orthogonal complement (see :func:`_lowest_eigenpair`):
    a second zero-energy state then appears as the lowest eigenvalue there,
    which a single-vector two-eigenvalue solve can miss. Since ``lambda1``
    is at most the second eigenvalue of ``H``, ``(r / lambda1)**2`` bounds
    the infidelity between ``psi`` and the true kernel vector; it must not
    exceed :data:`KERNEL_INFIDELITY_TOL`.

    Given a ``kernel``, the solve skips the Hamiltonian's ``pair_edges``.
    Their terms act on their own bond slots only, so ``H = A (x) 1 + 1 (x)
    B`` with ``A`` the :attr:`~LocalHamiltonian.restricted` Hamiltonian and
    ``B`` the sum of pair terms, whose spectrum is ``{0, 1, ...}`` with the
    pairs as unique ground state. Hence ``lambda1 = min(theta, 1)`` for the
    lowest eigenvalue ``theta`` of ``A`` off the restricted ``psi``: the
    solve runs on ``A`` with ``psi`` and ``start`` contracted with the
    pairs (one :func:`~peps_forge.network.pair_slots` index serves both and
    the Ritz vector's expansion), and when the pairs
    win, or every edge is a pair edge (step 0) and nothing is solved,
    ``lambda1`` and ``gap`` are exactly 1. The residual and the
    certificates stay on the full ``psi``. Without a ``kernel`` the solves
    run on the full space. Either way the Ritz vector ``x`` of ``theta``,
    tensored back with the pairs, is an eigenvector of ``H`` (``H (x (x)
    omega) = (A x) (x) omega``) and becomes ``excited_state``.

    ``start`` seeds the ``lambda1`` solve, for example with the
    ``excited_state`` of the previous step, whose Hamiltonian differs only
    around one vertex; without it (step 1 follows the unsolved step 0), or
    when less than half of its norm survives the restriction, the solve
    starts from a fixed random vector.
    The ``psi0`` search stops at :data:`KRYLOV_TOL` and the ``lambda1`` solve
    at :data:`GAP_RESIDUAL_TOL` (see :func:`_lowest_eigenpair`), and both find
    the true ``lambda1`` only if their start has weight on its eigenvector. The
    fixed random vector is therefore mixed into every start; otherwise a start
    confined to one component of a disconnected graph would report a gap larger
    than the true one. Warm and cold gaps agree to about 2e-14 on the test
    instances, disconnected ones included.

    Raises :class:`NumericalFailureError` when the state is not a
    zero-energy state (the parent construction guarantees one), the
    infidelity bound fails or the solver fails, and
    :class:`DegenerateGroundSpaceError` when the kernel is degenerate,
    which means the injectivity assumption fails for this instance and
    vertex order.
    """
    g = h.graph
    check_dim(g.global_dim, f"Hamiltonian at step {h.step}")
    if kernel is None:
        _, psi = _lowest_eigenpair(g.global_dim, h.apply)
        pairs = ()
    else:
        psi = np.asarray(kernel, dtype=complex)
        psi = psi * (1.0 / np.linalg.norm(psi))
        pairs = h.pair_edges
    h_psi = h.apply(psi)
    residual = float(np.linalg.norm(h_psi))
    if residual > zero_tol:
        raise NumericalFailureError(
            f"step {h.step}: no zero-energy state (residual ||H psi|| = {residual:.3e})"
        )
    lambda0 = float(np.vdot(psi, h_psi).real)
    theta, excited = math.inf, None  # with only pair edges (step 0) nothing is solved
    if len(pairs) < len(g.edges):
        op, phi = h, psi
        if pairs:
            op, slots = h.restricted, pair_slots(g, pairs)
            phi = slots.restrict(psi)
            phi = phi * (1.0 / np.linalg.norm(phi))
            if start is not None:
                kept = slots.restrict(start)
                start = kept if np.linalg.norm(kept) >= np.linalg.norm(start) / 2 else None
        theta, excited = _lowest_eigenpair(len(phi), op.apply, start, lock=phi)
        if pairs:
            excited = slots.expand(excited)
        excited = excited - np.vdot(psi, excited) * psi
        excited = excited * (1.0 / np.linalg.norm(excited))
    lambda1, gap = (1.0, 1.0) if pairs and theta >= 1.0 else (theta, theta - lambda0)
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
        gap=gap,
        ground_degeneracy=1,
        ground_state=psi,
        excited_state=excited,
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
