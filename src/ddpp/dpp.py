"""Greedy MAP inference for (conditional) k-DPPs plus a brute-force oracle.

The greedy search maintains an incremental Cholesky factorization: after t
consumed items each candidate i carries a partial factor column c_i and a
squared pivot d_i^2 = L_ii - ||c_i||^2, which is exactly the determinant
gain of adding i.  Consuming an item costs one rank-one update over all
candidates, so k picks run in O(k^2 n) once the kernel diagonal is known.

Contract: finite float64 input and symmetric kernels, checked where data
enters the package, not here.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, TooLargeError

# A pick whose squared pivot falls at or below EARLY_STOP_REL times the
# largest initial diagonal adds no volume; selection stops there.
EARLY_STOP_REL = 1e-12

BRUTE_FORCE_GUARD = 10**6


@dataclass
class MapResult:
    """Outcome of a MAP search: picked indices plus cumulative log-volumes."""

    indices: list
    stepwise_logdets: list
    rank_exhausted: bool = False
    frame: np.ndarray = None  # set by greedy_map_projector only


def _greedy(diag, kernel_row, k, preselected, excluded, scale=None):
    """Run the greedy; returns (MapResult, its Cholesky rows in order).

    ``kernel_row(j)`` returns row j of the kernel whose diagonal ``diag``
    is updated in place.  The ``preselected`` items are consumed first,
    then up to k picks.  A consumed item adds one Cholesky row and has its
    gain pinned to -inf; one whose gain already sits at the rank floor
    spans no new direction and adds no row.  The floor is EARLY_STOP_REL
    times ``scale``, by default the largest initial diagonal.
    """
    if k < 0:
        raise InvalidInputError("k must be non-negative")
    preselected = [int(p) for p in preselected]
    held = len(preselected)
    n = diag.shape[0]
    if scale is None:
        scale = max(float(np.max(diag)), 0.0) if n else 0.0
    floor = EARLY_STOP_REL * scale
    # A preselected item is conditioned on before its gain is pinned.
    for j in set(int(j) for j in excluded).difference(preselected):
        diag[j] = -np.inf
    rows = np.empty((held + k, n))
    t = 0
    chosen, logdets, total = [], [], 0.0
    for step in range(held + k):
        if step < held:
            j = preselected[step]
        else:
            j = int(np.argmax(diag)) if n else None
            if j is None or diag[j] <= floor:
                break
        d2 = float(diag[j])
        if d2 > floor:
            e = (kernel_row(j) - rows[:t, j] @ rows[:t]) / math.sqrt(d2)
            rows[t] = e
            t += 1
            diag -= np.square(e)
        diag[j] = -np.inf
        if step >= held:
            chosen.append(j)
            total += math.log(d2)
            logdets.append(total)
    result = MapResult(indices=chosen, stepwise_logdets=logdets,
                       rank_exhausted=len(chosen) < k)
    return result, rows[:t]


def greedy_map(L, k, preselected=(), excluded=()):
    """Greedy MAP selection of k items maximizing log det of the kernel.

    ``preselected`` items condition the geometry first (their gains are
    consumed but they are not reported), implementing selection given an
    already-held set; ``excluded`` items are never picked.  Ties break
    toward the lowest index.  If the best remaining gain hits the rank
    floor before k picks, the result is shorter and flagged.
    """
    diag = np.diag(L).copy()
    return _greedy(diag, lambda j: L[j], k, preselected, excluded)[0]


def greedy_map_rows(Z, k, preselected=(), excluded=()):
    """greedy_map on the kernel Z Z^T without materializing it.

    Kernel rows are formed on demand (one matvec per consumed item), which
    keeps memory linear in n and is the preferred path for large n.
    """
    diag = np.einsum("ij,ij->i", Z, Z)
    return _greedy(diag, lambda j: Z @ Z[j], k, preselected, excluded)[0]


def greedy_map_projector(B, k):
    """greedy_map on the projector I - B^T B, where B has orthonormal rows.

    Kernel rows e_j - B^T B[:, j] are formed on demand, so no n x n array
    is built.  On a projector kernel the incremental Cholesky rows are
    themselves the Gram-Schmidt frame of the picked columns: orthonormal,
    in pick order, spanning the same space.  They are returned as
    ``frame`` (one per row), so the greedy doubles as a rank-revealing,
    eigensolver-free basis of the projector's range.  Gains are measured
    against the projector's norm 1, so a kernel that is zero up to
    rounding yields no picks.
    """
    def row(j):
        out = -(B[:, j] @ B)
        out[j] += 1.0
        return out

    diag = 1.0 - np.einsum("ij,ij->j", B, B)
    result, frame = _greedy(diag, row, k, (), (), scale=1.0)
    result.frame = frame
    return result


def brute_force_map(L, k):
    """Exact MAP by enumerating every k-subset; ties break lexicographically.

    Guarded: refuses instances with more than 10^6 subsets.
    """
    n = L.shape[0]
    if not 0 < k <= n:
        raise InvalidInputError(f"k must be in 1..{n}, got {k}")
    if math.comb(n, k) > BRUTE_FORCE_GUARD:
        raise TooLargeError(f"C({n},{k}) exceeds {BRUTE_FORCE_GUARD} subsets")
    best, best_det = None, -np.inf
    for subset in itertools.combinations(range(n), k):
        d = float(np.linalg.det(L[np.ix_(subset, subset)]))
        if d > best_det:
            best, best_det = subset, d
    sub = L[np.ix_(best, best)]
    return MapResult(indices=list(best), stepwise_logdets=_prefix_logdets(sub))


def _prefix_logdets(sub):
    """log det of each leading principal block; -inf once singular."""
    out = []
    for t in range(1, sub.shape[0] + 1):
        sign, value = np.linalg.slogdet(sub[:t, :t])
        out.append(float(value) if sign > 0 else -np.inf)
    return out


def subset_logdet(Z, indices):
    """log det(Z_A Z_A^T) for the rows listed in ``indices``.

    Returns -inf when the submatrix is singular (that value is the singular
    flag; callers test it with ``math.isinf``).
    """
    idx = list(indices)
    if not idx:
        raise InvalidInputError("index set must be non-empty")
    if len(set(idx)) != len(idx):
        raise InvalidInputError("indices must be distinct")
    if len(idx) > Z.shape[1]:
        return -np.inf
    rows = Z[idx]
    sign, value = np.linalg.slogdet(rows @ rows.T)
    if sign <= 0 or not np.isfinite(value):
        return -np.inf
    return float(value)
