"""Dense complex linear algebra: the SVD wrapper and the dense oracles.

:func:`svd` is the thin SVD that the network and term layers use.
:func:`hermitian_eig` and :func:`embed_term` build and diagonalise dense
global matrices, which only the test oracles read (for example
``LocalHamiltonian.global_matrix``); the matrix-free Hamiltonian layer calls
numpy and scipy's BLAS and LAPACK directly. Matrices are plain complex
``numpy`` arrays; every function validates its preconditions and raises a
typed error instead of propagating raw LAPACK failures.

Index convention: a tensor product of registers is flattened in mixed-radix
order with register 0 as the most significant digit. ``numpy.kron`` follows
the same convention, so ``numpy.kron(a, b)`` acts on registers ``(0, 1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalFailureError

#: relative threshold separating genuine rank deficiency from float noise
RANK_RTOL = 1e-8

#: eigenvalues below this count as zero energy
ZERO_TOL = 1e-9

#: tolerated deviation from exact hermiticity
HERM_TOL = 1e-10


def as_matrix(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-d complex array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-dimensional, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInputError(f"{name} contains non-finite entries")
    return m


@dataclass(frozen=True)
class SingularDecomposition:
    """Thin SVD ``a = u @ diag(sigma) @ vh`` with ``sigma`` descending."""

    u: np.ndarray
    sigma: np.ndarray
    vh: np.ndarray


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of a Hermitian matrix, eigenvalues ascending.

    ``eigenvectors`` holds orthonormal eigenvectors as columns, so that
    ``eigenvectors @ diag(eigenvalues) @ eigenvectors.conj().T`` rebuilds
    the input.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def svd(m: np.ndarray) -> SingularDecomposition:
    """Thin singular value decomposition of one finite matrix.

    Raises :class:`NumericalFailureError` if the iterative solver does not
    converge (rare, but possible for pathological inputs).
    """
    m = as_matrix(m, "SVD input")
    try:
        u, s, vh = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"SVD did not converge: {exc}") from exc
    return SingularDecomposition(u=u, sigma=s, vh=vh)


def hermitian_eig(h: np.ndarray) -> SpectralDecomposition:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    The input is symmetrized before solving; deviations from hermiticity
    beyond ``HERM_TOL`` (relative to the largest entry) are rejected.
    """
    h = as_matrix(h)
    if h.shape[0] != h.shape[1]:
        raise InvalidInputError(f"expected a square matrix, got shape {h.shape}")
    scale = max(1.0, float(np.abs(h).max(initial=0.0)))
    dev = float(np.abs(h - h.conj().T).max(initial=0.0))
    if dev > HERM_TOL * scale:
        raise InvalidInputError(
            f"matrix is not Hermitian: max |h - h^dag| = {dev:.3e} "
            f"exceeds {HERM_TOL:.1e} * {scale:.3e}"
        )
    h = (h + h.conj().T) / 2
    try:
        w, v = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigendecomposition did not converge: {exc}") from exc
    return SpectralDecomposition(eigenvalues=w, eigenvectors=v)


def embed_term(
    term: np.ndarray, support: tuple[int, ...], register_dims: tuple[int, ...]
) -> np.ndarray:
    """Embed an operator on a subset of registers into the full product space.

    ``term`` acts on the registers listed in ``support`` (in that order) and
    is extended by the identity on the rest. Global flattening follows the
    mixed-radix convention with register 0 most significant.
    """
    term = as_matrix(term, "term")
    dims = tuple(int(d) for d in register_dims)
    n = len(dims)
    if len(set(support)) != len(support):
        raise InvalidInputError(f"support registers must be distinct, got {support}")
    for s in support:
        if not 0 <= s < n:
            raise InvalidInputError(f"support register {s} out of range for {n} registers")
    support_dim = math.prod(dims[s] for s in support)
    if term.shape != (support_dim, support_dim):
        raise InvalidInputError(
            f"term shape {term.shape} does not match support dimension {support_dim}"
        )
    # support first, the rest in natural order; inv undoes the permutation
    perm = [*support, *(i for i in range(n) if i not in support)]
    inv = [perm.index(i) for i in range(n)]
    total = math.prod(dims)
    full = np.kron(term, np.eye(total // support_dim, dtype=complex))
    dims_perm = [dims[p] for p in perm]
    tensor = full.reshape(dims_perm + dims_perm)
    tensor = tensor.transpose(inv + [n + i for i in inv])
    return np.ascontiguousarray(tensor.reshape(total, total))
