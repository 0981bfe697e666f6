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


class SelectionState:
    """Single-owner incremental Cholesky workspace for greedy selection.

    ``kernel_row(j)`` must return row j of the working kernel; the diagonal
    is copied up front.  ``capacity`` bounds how many items may be consumed
    (picked or conditioned).  Consumed and excluded items have their gain
    pinned to -inf so they can never be picked again.
    """

    def __init__(self, diag, kernel_row, capacity, gain_floor=0.0):
        self.diag = diag
        self.kernel_row = kernel_row
        self.chosen = []
        self.gain_floor = gain_floor
        self._rows = np.empty((capacity, diag.shape[0]))
        self._t = 0

    def exclude(self, indices):
        for j in indices:
            self.diag[j] = -np.inf

    def condition(self, j):
        """Consume item j: update every candidate's gain as if j were picked.

        A j whose own gain already sits at the rank floor spans no new
        direction; it is consumed without a rank-one update.
        """
        d2 = float(self.diag[j])
        if d2 <= self.gain_floor:
            self.diag[j] = -np.inf
            return 0.0
        t = self._t
        row = np.asarray(self.kernel_row(j), dtype=np.float64)
        e = (row - self._rows[:t, j] @ self._rows[:t]) / math.sqrt(d2)
        self._rows[t] = e
        self._t = t + 1
        self.diag -= np.square(e)
        self.diag[j] = -np.inf
        return d2

    def best_candidate(self):
        """Lowest index attaining the maximal gain, or None at the floor."""
        if self.diag.shape[0] == 0:
            return None
        j = int(np.argmax(self.diag))
        if self.diag[j] <= self.gain_floor:
            return None
        return j

    def pick(self):
        j = self.best_candidate()
        if j is None:
            return None, None
        gain = self.condition(j)
        self.chosen.append(j)
        return j, gain


def _greedy(diag, kernel_row, k, preselected, excluded, scale=None):
    """Run the greedy; returns (MapResult, the SelectionState it used).

    The rank floor is EARLY_STOP_REL times ``scale``, by default the
    largest initial diagonal.
    """
    if k < 0:
        raise InvalidInputError("k must be non-negative")
    preselected = [int(p) for p in preselected]
    n = diag.shape[0]
    if scale is None:
        scale = max(float(np.max(diag)), 0.0) if n else 0.0
    floor = EARLY_STOP_REL * scale
    state = SelectionState(diag, kernel_row, capacity=k + len(preselected),
                           gain_floor=floor)
    for p in preselected:
        state.condition(p)
    state.exclude(int(j) for j in excluded)
    logdets, total = [], 0.0
    exhausted = False
    for _ in range(k):
        j, gain = state.pick()
        if j is None:
            exhausted = True
            break
        total += math.log(gain)
        logdets.append(total)
    return MapResult(indices=state.chosen, stepwise_logdets=logdets,
                     rank_exhausted=exhausted), state


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
    result, state = _greedy(diag, row, k, (), (), scale=1.0)
    result.frame = state._rows[:state._t].copy()
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
