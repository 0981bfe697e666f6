"""Dense symmetric/PSD linear algebra primitives used by every other module.

Contract: finite float64 input (log-determinant chains amplify rounding)
and symmetric kernels, checked where data enters the package, not here.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf

from .errors import InvalidInputError, NotPositiveDefiniteError, NotPsdError

# Eigen/singular values below RANK_TOL * largest count as zero.
RANK_TOL = 1e-10


def as_matrix(a, name="matrix"):
    """Entry check: ``a`` as a finite 2-D float64 array with at least one row."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] == 0:
        raise InvalidInputError(f"{name} must be 2-D with at least one row, "
                                f"got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


def symmetrize(M):
    """(M + M^T) / 2; bitwise-symmetric thanks to commutative float addition."""
    return (M + M.T) / 2.0


@dataclass(frozen=True)
class SpectralDecomp:
    """Full symmetric eigendecomposition, eigenvalues sorted descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns are eigenvectors, orthonormal


def gram(Z):
    """Similarity kernel L = Z Z^T of a feature matrix (one sample per row).

    The result is exactly symmetric by construction.
    """
    if Z.shape[0] == 0:
        raise InvalidInputError("feature matrix must have at least one row")
    return symmetrize(Z @ Z.T)


def logdet_psd(M):
    """log det of a symmetric positive definite matrix via Cholesky.

    A failed factorization raises with the failing pivot index.
    """
    c, info = dpotrf(M, lower=1)
    if info:
        raise NotPositiveDefiniteError(int(info) - 1)
    return float(2.0 * np.sum(np.log(np.diag(c))))


def spectral_decomp(M):
    """Eigendecomposition of a symmetric matrix, eigenvalues descending."""
    w, V = np.linalg.eigh(M)
    order = np.argsort(w)[::-1]
    return SpectralDecomp(eigenvalues=w[order], eigenvectors=V[:, order])


def psd_sqrt(M):
    """Symmetric square root V diag(max(w,0))^{1/2} V^T of a PSD matrix.

    Eigenvalues in [-1e-6, 0) are treated as rounding noise and clamped;
    anything below -1e-6 raises.
    """
    dec = spectral_decomp(M)
    w = dec.eigenvalues
    if w.size and w[-1] < -1e-6:
        raise NotPsdError(f"eigenvalue {w[-1]:.3e} below -1e-06")
    root = np.sqrt(np.clip(w, 0.0, None))
    V = dec.eigenvectors
    return symmetrize((V * root) @ V.T)


def numerical_rank(values, tol=RANK_TOL):
    """Count of entries above tol * max(values); zero for an empty input."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return 0
    cutoff = tol * np.max(np.abs(values))
    return int(np.sum(np.abs(values) > cutoff))


def orthonormal_row_basis(Z):
    """Rows of the returned Q form an orthonormal basis of rowspace(Z).

    Rank is decided by singular values relative to the largest
    (``RANK_TOL``); an empty or zero input yields a 0-row basis.
    """
    if Z.shape[0] == 0 or Z.size == 0:
        return np.zeros((0, Z.shape[1]))
    _, s, Vh = np.linalg.svd(Z, full_matrices=False)
    r = numerical_rank(s)
    return Vh[:r].copy()
