"""Linear-algebra kernel: decompositions, projectors, embeddings."""

from __future__ import annotations

import math

import numpy as np
import pytest

from _helpers import (
    eig_reconstruct,
    haar_unitary,
    kernel_basis,
    random_complex,
    random_hermitian,
    svd_reconstruct,
    two_svd_polar,
)
from peps_forge import linalg
from peps_forge.errors import InjectivityError, InvalidInputError
from peps_forge.network import canonicalize


def _kernel_projector(h: np.ndarray) -> np.ndarray:
    basis = kernel_basis(linalg.hermitian_eig(h))
    return basis @ basis.conj().T


class TestSvd:
    def test_identity_singular_values(self):
        dec = linalg.svd(np.eye(2))
        assert np.allclose(dec.sigma, [1.0, 1.0])

    def test_diagonal_singular_values(self):
        dec = linalg.svd(np.diag([2.0, 1.0]))
        assert np.allclose(dec.sigma, [2.0, 1.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_random_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        m = random_complex(4, 4, rng)
        dec = linalg.svd(m)
        assert np.abs(svd_reconstruct(dec) - m).max() <= 1e-10 * np.abs(m).max()
        assert np.all(np.diff(dec.sigma) <= 0)

    def test_rectangular_shapes(self):
        rng = np.random.default_rng(0)
        m = random_complex(6, 3, rng)
        dec = linalg.svd(m)
        assert dec.u.shape == (6, 3)
        assert dec.vh.shape == (3, 3)
        assert np.abs(svd_reconstruct(dec) - m).max() <= 1e-10 * np.abs(m).max()

    def test_rejects_nan(self):
        bad = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(InvalidInputError):
            linalg.svd(bad)

    def test_rejects_stack(self):
        with pytest.raises(InvalidInputError, match="2-dimensional"):
            linalg.svd(np.stack([np.eye(2), np.eye(2)]))


class TestHermitianEig:
    def test_diagonal_spectrum(self):
        dec = linalg.hermitian_eig(np.diag([0.0, 1.0, 1.0, 1.0]))
        assert np.allclose(dec.eigenvalues, [0.0, 1.0, 1.0, 1.0])

    def test_rank_one_projector_spectrum(self):
        omega = np.zeros(4, dtype=complex)
        omega[[0, 3]] = 1.0 / math.sqrt(2)
        proj = np.outer(omega, omega.conj())
        dec = linalg.hermitian_eig(proj)
        assert np.allclose(dec.eigenvalues, [0.0, 0.0, 0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_residuals_and_orthonormality(self, seed):
        rng = np.random.default_rng(seed)
        h = random_hermitian(8, rng)
        dec = linalg.hermitian_eig(h)
        v = dec.eigenvectors
        for i in range(8):
            residual = h @ v[:, i] - dec.eigenvalues[i] * v[:, i]
            assert np.linalg.norm(residual) <= 1e-9
        assert np.abs(v.conj().T @ v - np.eye(8)).max() <= 1e-10
        assert np.abs(eig_reconstruct(dec) - h).max() <= 1e-10 * np.abs(h).max()
        assert np.all(np.diff(dec.eigenvalues) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidInputError):
            linalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_rectangular(self):
        with pytest.raises(InvalidInputError):
            linalg.hermitian_eig(np.zeros((2, 3)))


class TestPolarDecompose:
    """The polar factors ``canonicalize`` takes from its one SVD."""

    def test_positive_definite_input_gives_identity_isometry(self):
        rng = np.random.default_rng(1)
        m = random_complex(3, 3, rng)
        pd = m @ m.conj().T + 3.0 * np.eye(3)
        t = canonicalize(0, pd)
        assert np.abs(t.isometry - np.eye(3)).max() <= 1e-10
        assert np.abs(t.positive_factor - pd).max() <= 1e-9

    def test_scaled_identity(self):
        t = canonicalize(0, 2.0 * np.eye(2))
        assert np.abs(t.isometry - np.eye(2)).max() <= 1e-12
        assert np.abs(t.positive_factor - np.diag([2.0, 2.0])).max() <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_random_tall_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        a = random_complex(6, 4, rng)
        t = canonicalize(0, a)
        isometry, psd = t.isometry, t.positive_factor
        assert np.abs(isometry @ psd - a).max() <= 1e-10 * np.abs(a).max()
        assert np.abs(isometry.conj().T @ isometry - np.eye(4)).max() <= 1e-10
        eigs = np.linalg.eigvalsh(psd)
        sigma_min = linalg.svd(a).sigma[-1]
        assert eigs.min() >= sigma_min - 1e-10
        assert np.abs(psd - psd.conj().T).max() <= 1e-12

    def test_rank_deficient_rejected(self):
        a = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(InjectivityError, match="vertex 0"):
            canonicalize(0, a)

    def test_wide_rejected(self):
        with pytest.raises(InvalidInputError):
            canonicalize(0, np.ones((2, 3)))

    def test_one_svd_per_map(self, monkeypatch):
        calls = []
        real_svd = np.linalg.svd

        def counting_svd(*args, **kwargs):
            calls.append(1)
            return real_svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        canonicalize(0, random_complex(6, 4, np.random.default_rng(2)))
        assert len(calls) == 1

    @pytest.mark.parametrize("shape", [(2, 2), (4, 4), (6, 4), (9, 8)])
    def test_fields_match_two_svd_reference(self, shape):
        rng = np.random.default_rng(shape[0] * 10 + shape[1])
        a = random_complex(*shape, rng)
        t = canonicalize(3, a)
        isometry, psd, sigma = two_svd_polar(a)
        assert np.array_equal(t.matrix, a)
        assert np.array_equal(t.isometry, isometry)
        assert np.array_equal(t.positive_factor, psd)
        assert np.array_equal(t.singular_values, sigma)

    def test_fixture_fields_match_two_svd_reference(self, fixture_zoo):
        for name, (_, _, _, tensors) in fixture_zoo.items():
            for t in tensors:
                isometry, psd, sigma = two_svd_polar(t.matrix)
                assert np.array_equal(t.isometry, isometry), name
                assert np.array_equal(t.positive_factor, psd), name
                assert np.array_equal(t.singular_values, sigma), name


class TestConditionNumber:
    """``PepsTensor.kappa``, the condition number Lemma 1 and the budget use."""

    def test_identity(self):
        assert canonicalize(0, np.eye(3)).kappa == pytest.approx(1.0)

    def test_diagonal(self):
        assert canonicalize(0, np.diag([2.0, 1.0])).kappa == pytest.approx(2.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_gram_matrix_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a = random_complex(5, 3, rng)
        gram_eigs = np.linalg.eigvalsh(a.conj().T @ a)
        oracle = math.sqrt(gram_eigs[-1] / gram_eigs[0])
        assert abs(canonicalize(0, a).kappa - oracle) <= 1e-9 * oracle

    @pytest.mark.parametrize("seed", range(3))
    def test_invariant_under_isometries(self, seed):
        rng = np.random.default_rng(seed)
        a = random_complex(4, 4, rng) + 2.0 * np.eye(4)
        u = haar_unitary(4, rng)
        v = haar_unitary(4, rng)
        kappa = canonicalize(0, a).kappa
        assert canonicalize(0, u @ a @ v).kappa == pytest.approx(kappa, rel=1e-9)

    def test_rank_deficient_rejected(self):
        with pytest.raises(InjectivityError):
            canonicalize(0, np.diag([1.0, 0.0]))


class TestKernelProjector:
    """Projectors built from the test helpers' ``kernel_basis``."""

    def test_zero_matrix_gives_identity(self):
        proj = _kernel_projector(np.zeros((3, 3)))
        assert np.abs(proj - np.eye(3)).max() <= 1e-12

    def test_diagonal(self):
        proj = _kernel_projector(np.diag([0.0, 1.0]))
        assert np.abs(proj - np.diag([1.0, 0.0])).max() <= 1e-12

    def test_pair_complement_projector_kernel(self):
        # h annihilates exactly the entangled pair: kernel is rank one
        omega = np.zeros(4, dtype=complex)
        omega[[0, 3]] = 1.0 / math.sqrt(2)
        h = np.eye(4) - np.outer(omega, omega.conj())
        proj = _kernel_projector(h)
        assert np.abs(proj - np.outer(omega, omega.conj())).max() <= 1e-10

    @pytest.mark.parametrize("seed", range(3))
    def test_idempotent_and_annihilates(self, seed):
        rng = np.random.default_rng(seed)
        basis = haar_unitary(6, rng)
        lam = np.array([0.0, 0.0, 0.4, 1.0, 1.5, 2.0])
        h = (basis * lam) @ basis.conj().T
        proj = _kernel_projector(h)
        assert np.abs(proj @ proj - proj).max() <= 1e-10
        assert np.linalg.norm(proj @ h, ord=2) <= 1e-9 + 1e-10
        assert np.trace(proj).real == pytest.approx(2.0, abs=1e-9)


class TestKronAndEmbed:
    def test_kron_permutation_on_basis_state(self):
        # first register is the most significant digit
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        state = np.zeros(4)
        state[0] = 1.0  # |00>
        flipped = linalg.embed_term(x, (0,), (2, 2)) @ state
        expected = np.zeros(4)
        expected[2] = 1.0  # |10>
        assert np.allclose(flipped, expected)

    def test_embed_on_register_one(self):
        term = np.diag([0.0, 1.0])
        embedded = linalg.embed_term(term, (1,), (2, 2))
        assert np.abs(embedded - np.diag([0.0, 1.0, 0.0, 1.0])).max() == 0.0

    def test_embed_identity_is_global_identity(self):
        embedded = linalg.embed_term(np.eye(3), (1,), (2, 3, 2))
        assert np.abs(embedded - np.eye(12)).max() == 0.0

    def test_embed_commutes_with_addition(self):
        rng = np.random.default_rng(2)
        a = random_hermitian(4, rng)
        b = random_hermitian(4, rng)
        dims = (2, 3, 2)
        left = linalg.embed_term(a + b, (0, 2), dims)
        right = linalg.embed_term(a, (0, 2), dims) + linalg.embed_term(b, (0, 2), dims)
        assert np.abs(left - right).max() <= 1e-12

    def test_embed_matches_kron_on_adjacent_registers(self):
        rng = np.random.default_rng(3)
        a = random_hermitian(2, rng)
        b = random_hermitian(3, rng)
        embedded = linalg.embed_term(np.kron(a, b), (0, 1), (2, 3))
        assert np.abs(embedded - np.kron(a, b)).max() <= 1e-12

    def test_embed_support_order_swap(self):
        rng = np.random.default_rng(4)
        a = random_hermitian(2, rng)
        b = random_hermitian(3, rng)
        dims = (2, 3)
        forward = linalg.embed_term(np.kron(a, b), (0, 1), dims)
        swapped = linalg.embed_term(np.kron(b, a), (1, 0), dims)
        assert np.abs(forward - swapped).max() <= 1e-12

    def test_embed_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            linalg.embed_term(np.eye(3), (0,), (2, 2))

    def test_embed_duplicate_support(self):
        with pytest.raises(InvalidInputError):
            linalg.embed_term(np.eye(4), (0, 0), (2, 2))
