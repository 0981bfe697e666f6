"""Dense symmetric/PSD linear algebra primitives used by every other module.

Contract: finite float64 input (log-determinant chains amplify rounding)
and symmetric kernels, checked where data enters the package, not here.
"""

import numpy as np

from .errors import InvalidInputError, NotPositiveDefiniteError, NotPsdError

# Eigen/singular values below RANK_TOL * largest count as zero.
RANK_TOL = 1e-10


def as_matrix(a, name):
    """Entry check: ``a`` as a finite 2-D float64 array, neither side empty."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2 or 0 in arr.shape:
        raise InvalidInputError(f"{name} must be 2-D with at least one row "
                                f"and one column, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    return arr


def symmetrize(M):
    """(M + M^T) / 2; bitwise-symmetric thanks to commutative float addition."""
    return (M + M.T) / 2.0


def logdet_psd(M):
    """log det of a symmetric positive definite matrix via Cholesky.

    Only the lower triangle is read.  A failed factorization raises with the
    failing pivot: the first leading block of order j that does not factor
    gives pivot j - 1.
    """
    try:
        c = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(_failing_pivot(M)) from None
    return float(2.0 * np.sum(np.log(np.diag(c))))


def _failing_pivot(M):
    """Pivot of a matrix whose Cholesky fails, by bisection on leading blocks.

    A leading block that factors has only leading blocks that factor, so
    the order of the first failing one is found in log2(n) factorizations.
    """
    good, bad = 0, M.shape[0]  # orders known to factor / to fail
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            np.linalg.cholesky(M[:mid, :mid])
            good = mid
        except np.linalg.LinAlgError:
            bad = mid
    return bad - 1


def spectral_decomp(M):
    """Eigenpairs (w, V) of a symmetric matrix, w descending, V by columns."""
    w, V = np.linalg.eigh(M)
    order = np.argsort(w)[::-1]
    return w[order], V[:, order]


def psd_eigh(M):
    """Eigenpairs (w, V) of a PSD matrix, w descending and ``clamp_psd``-ed."""
    w, V = spectral_decomp(M)
    return clamp_psd(w), V


def clamp_psd(w):
    """Eigenvalues ``w`` of a PSD matrix, clamped at zero.

    Eigenvalues in [-1e-6, 0) are treated as rounding noise and clamped;
    anything below -1e-6 raises.
    """
    low = float(w.min()) if w.size else 0.0
    if low < -1e-6:
        raise NotPsdError(f"eigenvalue {low:.3e} below -1e-06")
    return np.clip(w, 0.0, None)


def orthonormal_row_basis(Z):
    """Rows of the returned Q form an orthonormal basis of rowspace(Z).

    Rank is decided by singular values relative to the largest
    (``RANK_TOL``); an empty or zero input yields a 0-row basis.
    """
    if Z.shape[0] == 0 or Z.size == 0:
        return np.zeros((0, Z.shape[1]))
    _, s, Vh = np.linalg.svd(Z, full_matrices=False)
    r = int(np.sum(s > RANK_TOL * s[0]))  # s is non-negative, descending
    return Vh[:r].copy()


def extend_frame(F, Z):
    """F's orthonormal rows, then ones spanning what of rowspace(Z) they miss.

    Z's unit-scaled rows (zero stays zero) are projected off F and their
    right singular vectors of value > ``RANK_TOL`` kept, twice (block CGS2).
    """
    norms = np.linalg.norm(Z, axis=1, keepdims=True)
    Z = Z / np.where(norms > 0, norms, 1.0)
    for _ in range(2 if len(F) else 1):  # a small s magnifies what F left
        Z = Z - (Z @ F.T) @ F
        U, s, _ = np.linalg.svd(Z.T, full_matrices=False)  # tall: faster
        Z = U.T[s > RANK_TOL]
    return np.vstack([F, Z])
