import math

import numpy as np
import pytest

from ddpp import linalg
from ddpp.errors import InvalidInputError, NotPositiveDefiniteError, NotPsdError


def random_psd(rng, n, rank=None):
    Z = rng.normal(size=(n, rank or n))
    return linalg.gram(Z)


class TestGram:
    def test_orthonormal_rows_give_identity(self):
        Z = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(linalg.gram(Z), np.eye(2))

    def test_single_row_squared_norm(self):
        assert linalg.gram(np.array([[1.0, 1.0]])) == pytest.approx(np.array([[2.0]]))

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(7)
        Z = rng.normal(size=(5, 3))
        L = linalg.gram(Z)
        naive = np.empty((5, 5))
        for i in range(5):
            for j in range(5):
                naive[i, j] = sum(Z[i, t] * Z[j, t] for t in range(3))
        assert np.max(np.abs(L - naive)) <= 1e-12

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(8)
        L = linalg.gram(rng.normal(size=(40, 17)))
        assert np.array_equal(L, L.T)

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            linalg.gram(np.zeros((0, 3)))


class TestLogdetPsd:
    def test_identity_is_zero(self):
        assert linalg.logdet_psd(np.eye(3)) == pytest.approx(0.0, abs=1e-15)

    def test_diagonal(self):
        assert linalg.logdet_psd(np.diag([2.0, 3.0])) == pytest.approx(math.log(6.0), abs=1e-12)

    def test_matches_eigenvalue_product(self):
        rng = np.random.default_rng(11)
        M = random_psd(rng, 6) + 0.5 * np.eye(6)
        dec = linalg.spectral_decomp(M)
        expected = float(np.sum(np.log(dec.eigenvalues)))
        assert linalg.logdet_psd(M) == pytest.approx(expected, abs=1e-9)

    def test_scaling_identity(self):
        rng = np.random.default_rng(12)
        M = random_psd(rng, 5) + np.eye(5)
        for c in (0.5, 3.0, 17.0):
            expected = 5 * math.log(c) + linalg.logdet_psd(M)
            assert linalg.logdet_psd(c * M) == pytest.approx(expected, abs=1e-9)

    def test_failure_reports_pivot(self):
        M = np.diag([1.0, -5.0, 2.0])
        with pytest.raises(NotPositiveDefiniteError) as err:
            linalg.logdet_psd(M)
        assert err.value.pivot == 1


class TestSpectralDecomp:
    def test_diagonal(self):
        dec = linalg.spectral_decomp(np.diag([3.0, 1.0]))
        assert dec.eigenvalues == pytest.approx([3.0, 1.0])
        assert np.abs(dec.eigenvectors) == pytest.approx(np.eye(2), abs=1e-12)

    def test_rank_one(self):
        u = np.array([0.0, 2.0, 0.0])
        dec = linalg.spectral_decomp(np.outer(u, u))
        assert dec.eigenvalues == pytest.approx([4.0, 0.0, 0.0], abs=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(21)
        A = rng.normal(size=(8, 8))
        M = (A + A.T) / 2
        dec = linalg.spectral_decomp(M)
        V = dec.eigenvectors
        assert np.max(np.abs(V.T @ V - np.eye(8))) <= 1e-8
        assert np.max(np.abs(V @ np.diag(dec.eigenvalues) @ V.T - M)) <= 1e-9
        assert all(a >= b for a, b in zip(dec.eigenvalues, dec.eigenvalues[1:]))

    def test_eigenvalue_sum_equals_trace(self):
        rng = np.random.default_rng(22)
        M = random_psd(rng, 7)
        dec = linalg.spectral_decomp(M)
        trace = float(np.trace(M))
        assert float(np.sum(dec.eigenvalues)) == pytest.approx(trace, rel=1e-9)


class TestPsdSqrt:
    def test_identity(self):
        assert linalg.psd_sqrt(np.eye(4)) == pytest.approx(np.eye(4), abs=1e-12)

    def test_diagonal(self):
        assert linalg.psd_sqrt(np.diag([4.0, 9.0])) == pytest.approx(np.diag([2.0, 3.0]), abs=1e-12)

    def test_projector_is_own_square_root(self):
        rng = np.random.default_rng(31)
        Q, _ = np.linalg.qr(rng.normal(size=(6, 3)))
        P = Q @ Q.T
        assert np.max(np.abs(P @ P - P)) <= 1e-12  # idempotent by construction
        assert np.max(np.abs(linalg.psd_sqrt(P) - P)) <= 1e-7

    def test_square_recovers_input(self):
        rng = np.random.default_rng(32)
        M = random_psd(rng, 9)
        root = linalg.psd_sqrt(M)
        bound = 1e-7 * max(1.0, float(np.max(np.abs(M))))
        assert np.max(np.abs(root @ root - M)) <= bound

    def test_rejects_clearly_indefinite(self):
        with pytest.raises(NotPsdError):
            linalg.psd_sqrt(np.diag([1.0, -0.5]))


class TestOrthonormalRowBasis:
    def test_axis_aligned(self):
        Q = linalg.orthonormal_row_basis(np.array([[2.0, 0.0], [0.0, 0.0]]))
        assert Q.shape == (1, 2)
        assert np.abs(Q) == pytest.approx(np.array([[1.0, 0.0]]), abs=1e-12)

    def test_duplicate_rows_collapse(self):
        Z = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        assert linalg.orthonormal_row_basis(Z).shape[0] == 1

    def test_full_rank_basis_reconstructs_rows(self):
        rng = np.random.default_rng(41)
        Z = rng.normal(size=(4, 6))
        Q = linalg.orthonormal_row_basis(Z)
        assert Q.shape == (4, 6)
        assert np.max(np.abs(Q @ Q.T - np.eye(4))) <= 1e-10
        residual = Z - (Z @ Q.T) @ Q
        assert np.max(np.abs(residual)) <= 1e-9

    def test_empty_input(self):
        assert linalg.orthonormal_row_basis(np.zeros((0, 5))).shape == (0, 5)
