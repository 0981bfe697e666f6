"""Dense symmetric/PSD linear algebra primitives used by every other module.

All routines work on 64-bit floats; narrower inputs are widened on entry
because log-determinant chains amplify rounding.  Every decomposed matrix in
this system is symmetric, so only symmetric solver paths exist.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf

from .errors import InvalidInputError, NotPositiveDefiniteError, NotPsdError

# Eigen/singular values below RANK_TOL * largest count as zero.
RANK_TOL = 1e-10
SYMMETRY_TOL = 1e-9
# Rows per block of the symmetry check; bounds its temporary to 64 x n.
SYMMETRY_BLOCK = 64
# Escalating diagonal jitter tried before declaring a Cholesky failure;
# Gram matrices of near-duplicate samples are only semi-definite.
JITTER_LADDER = (1e-12, 1e-10, 1e-8)


def as_matrix(a, name="matrix"):
    """Validate and widen ``a`` to a 2-D float64 array with finite entries."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise InvalidInputError(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


def require_symmetric(M, name="matrix", tol=SYMMETRY_TOL):
    """Return ``M`` as float64 after checking max |M - M^T| <= tol."""
    M = as_matrix(M, name)
    if M.shape[0] != M.shape[1]:
        raise InvalidInputError(f"{name} must be square, got shape {M.shape}")
    for r in range(0, M.shape[0], SYMMETRY_BLOCK):
        diff = M[r:r + SYMMETRY_BLOCK] - M[:, r:r + SYMMETRY_BLOCK].T
        if np.abs(diff, out=diff).max() > tol:
            raise InvalidInputError(f"{name} is not symmetric within {tol}")
    return M


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
    Z = as_matrix(Z, "feature matrix")
    if Z.shape[0] == 0:
        raise InvalidInputError("feature matrix must have at least one row")
    return symmetrize(Z @ Z.T)


def logdet_psd(M, jitter=0.0):
    """log det(M + jitter*I) of a symmetric PSD matrix via Cholesky.

    If the factorization fails at the requested jitter, larger ladder values
    are tried; the first success determines the result.  Failure after the
    ladder raises with the failing pivot index.
    """
    M = require_symmetric(M)
    if jitter < 0:
        raise InvalidInputError("jitter must be non-negative")
    n = M.shape[0]
    if n == 0:
        return 0.0
    last_pivot = 0
    for j in [jitter] + [j for j in JITTER_LADDER if j > jitter]:
        A = M if j == 0 else M + j * np.eye(n)
        c, info = dpotrf(A, lower=1)
        if info == 0:
            return float(2.0 * np.sum(np.log(np.diag(c))))
        last_pivot = int(info) - 1
    raise NotPositiveDefiniteError(last_pivot)


def spectral_decomp(M):
    """Eigendecomposition of a symmetric matrix, eigenvalues descending."""
    M = require_symmetric(M)
    w, V = np.linalg.eigh(symmetrize(M))
    order = np.argsort(w)[::-1]
    return SpectralDecomp(eigenvalues=w[order], eigenvectors=V[:, order])


def psd_sqrt(M, neg_tol=1e-6):
    """Symmetric square root V diag(max(w,0))^{1/2} V^T of a PSD matrix.

    Eigenvalues in [-neg_tol, 0) are treated as rounding noise and clamped;
    anything below -neg_tol raises.
    """
    dec = spectral_decomp(M)
    w = dec.eigenvalues
    if w.size and w[-1] < -neg_tol:
        raise NotPsdError(f"eigenvalue {w[-1]:.3e} below -{neg_tol:.0e}")
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


def orthonormal_row_basis(Z, tol=RANK_TOL):
    """Rows of the returned Q form an orthonormal basis of rowspace(Z).

    Rank is decided by singular values relative to the largest; an empty or
    zero input yields a 0-row basis.
    """
    if tol <= 0:
        raise InvalidInputError("tol must be positive")
    Z = as_matrix(Z, "matrix")
    if Z.shape[0] == 0 or Z.size == 0:
        return np.zeros((0, Z.shape[1]))
    _, s, Vh = np.linalg.svd(Z, full_matrices=False)
    r = numerical_rank(s, tol)
    return Vh[:r].copy()
