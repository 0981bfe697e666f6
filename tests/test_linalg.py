import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import counted, psd_sqrt
from ddpp import linalg
from ddpp.errors import NotPositiveDefiniteError, NotPsdError


def random_psd(rng, n, rank=None):
    Z = rng.normal(size=(n, rank or n))
    return Z @ Z.T


class TestGram:
    def test_exactly_symmetric(self):
        # a source's shared Gram (500 x 512, ``engine._share_gram``) and
        # ``ddpp oracle`` hand Z @ Z.T to greedies that read rows as columns:
        # numpy must return it bitwise symmetric, with no symmetrize pass.
        rng = np.random.default_rng(8)
        for shape in ((500, 512), (6, 2)):
            Z = rng.normal(size=shape)
            L = Z @ Z.T
            assert np.array_equal(L, L.T)


class TestLogdetPsd:
    def test_identity_is_zero(self):
        assert linalg.logdet_psd(np.eye(3)) == pytest.approx(0.0, abs=1e-15)

    def test_diagonal(self):
        assert linalg.logdet_psd(np.diag([2.0, 3.0])) == pytest.approx(math.log(6.0), abs=1e-12)

    def test_matches_eigenvalue_product(self):
        rng = np.random.default_rng(11)
        M = random_psd(rng, 6) + 0.5 * np.eye(6)
        w, _ = linalg.spectral_decomp(M)
        expected = float(np.sum(np.log(w)))
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

    @staticmethod
    def first_indefinite_block(M):
        """0-based order minus one of the first leading block that is not PD."""
        for j in range(1, M.shape[0] + 1):
            if np.linalg.eigvalsh(M[:j, :j]).min() <= 0:
                return j - 1
        return None

    @pytest.mark.parametrize("n,pivot", [(1, 0), (7, 0), (7, 3), (7, 6),
                                         (12, 5), (12, 11)])
    def test_failure_pivot_on_dense_indefinite_matrix(self, n, pivot):
        # the Schur complement of the leading block at ``pivot`` is -0.5
        rng = np.random.default_rng(100 + 13 * n + pivot)
        M = random_psd(rng, n) + 0.1 * np.eye(n)
        a = M[pivot, :pivot]
        M[pivot, pivot] = a @ np.linalg.solve(M[:pivot, :pivot], a) - 0.5
        assert self.first_indefinite_block(M) == pivot
        with pytest.raises(NotPositiveDefiniteError) as err:
            linalg.logdet_psd(M)
        assert err.value.pivot == pivot

    def test_reads_only_the_lower_triangle(self):
        rng = np.random.default_rng(13)
        M = random_psd(rng, 6) + np.eye(6)
        garbage = np.tril(M) + np.triu(rng.normal(size=(6, 6)) * 50.0, 1)
        assert linalg.logdet_psd(garbage) == linalg.logdet_psd(M)


class TestSpectralDecomp:
    def test_diagonal(self):
        w, V = linalg.spectral_decomp(np.diag([3.0, 1.0]))
        assert w == pytest.approx([3.0, 1.0])
        assert np.abs(V) == pytest.approx(np.eye(2), abs=1e-12)

    def test_rank_one(self):
        u = np.array([0.0, 2.0, 0.0])
        w, _ = linalg.spectral_decomp(np.outer(u, u))
        assert w == pytest.approx([4.0, 0.0, 0.0], abs=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(21)
        A = rng.normal(size=(8, 8))
        M = (A + A.T) / 2
        w, V = linalg.spectral_decomp(M)
        assert np.max(np.abs(V.T @ V - np.eye(8))) <= 1e-8
        assert np.max(np.abs(V @ np.diag(w) @ V.T - M)) <= 1e-9
        assert all(a >= b for a, b in zip(w, w[1:]))

    def test_eigenvalue_sum_equals_trace(self):
        rng = np.random.default_rng(22)
        M = random_psd(rng, 7)
        w, _ = linalg.spectral_decomp(M)
        assert float(np.sum(w)) == pytest.approx(float(np.trace(M)), rel=1e-9)


class TestPsdSqrt:
    """The tests' dense reference root, which packet checks compare against."""

    def test_identity(self):
        assert psd_sqrt(np.eye(4)) == pytest.approx(np.eye(4), abs=1e-12)

    def test_diagonal(self):
        assert psd_sqrt(np.diag([4.0, 9.0])) == pytest.approx(np.diag([2.0, 3.0]), abs=1e-12)

    def test_projector_is_own_square_root(self):
        rng = np.random.default_rng(31)
        Q, _ = np.linalg.qr(rng.normal(size=(6, 3)))
        P = Q @ Q.T
        assert np.max(np.abs(P @ P - P)) <= 1e-12  # idempotent by construction
        assert np.max(np.abs(psd_sqrt(P) - P)) <= 1e-7

    def test_square_recovers_input(self):
        rng = np.random.default_rng(32)
        M = random_psd(rng, 9)
        root = psd_sqrt(M)
        bound = 1e-7 * max(1.0, float(np.max(np.abs(M))))
        assert np.max(np.abs(root @ root - M)) <= bound

    def test_rejects_clearly_indefinite(self):
        with pytest.raises(NotPsdError):
            psd_sqrt(np.diag([1.0, -0.5]))


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


class TestExtendFrame:
    """The center's frame: orthonormal rows spanning every row received."""

    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(1, 9),
           sizes=st.lists(st.integers(0, 6), min_size=1, max_size=5),
           data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_spans_every_batch_with_orthonormal_rows(self, m, sizes, data,
                                                     seed):
        # a row is new, a copy of one seen before, a combination of two
        # (so a batch may be rank-deficient), one seen before moved by
        # 1e-8 (one round of projection and SVD leaves such a direction
        # far from orthogonal to the frame) or zero; one batch is scaled
        # by 1e-12, far below the others
        rng = np.random.default_rng(seed)
        tiny = data.draw(st.integers(0, len(sizes) - 1), label="tiny batch")
        kinds = st.sampled_from(["new", "copy", "combination", "near", "zero"])
        F, seen = np.zeros((0, m)), []
        for b, size in enumerate(sizes):
            batch = rng.normal(size=(size, m))
            for i in range(size):
                kind = data.draw(kinds) if seen or i else "new"
                earlier = seen + list(batch[:i])
                if kind == "copy":
                    batch[i] = earlier[rng.integers(len(earlier))]
                elif kind == "combination":
                    a, c = rng.integers(len(earlier), size=2)
                    batch[i] = earlier[a] + rng.normal() * earlier[c]
                elif kind == "near":
                    batch[i] = earlier[rng.integers(len(earlier))] + 1e-8 * (
                        rng.normal(size=m))
                elif kind == "zero":
                    batch[i] = 0.0
            if b == tiny:
                batch *= 1e-12
            F = linalg.extend_frame(F, batch)
            seen.extend(batch)
            assert np.linalg.norm(F @ F.T - np.eye(len(F))) <= 1e-12
            for row in seen:
                assert (np.linalg.norm(row - (F @ row) @ F)
                        <= 1e-10 * np.linalg.norm(row))

    def test_an_empty_frame_extends_by_one_svd(self, monkeypatch):
        Z = np.random.default_rng(42).normal(size=(3, 7))
        calls = counted(monkeypatch, "svd", np.linalg)
        F = linalg.extend_frame(np.zeros((0, 7)), Z)
        assert F.shape == (3, 7) and len(calls) == 1
        assert np.allclose(F @ F.T, np.eye(3), rtol=0, atol=1e-12)

    def test_rows_the_frame_spans_add_nothing(self):
        Z = np.random.default_rng(43).normal(size=(4, 6))
        F = linalg.extend_frame(np.zeros((0, 6)), Z)
        again = linalg.extend_frame(F, np.vstack([Z[1] - 2 * Z[3], Z[0],
                                                  np.zeros(6)]))
        assert np.array_equal(again, F)
