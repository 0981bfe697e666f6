"""Greedy MAP inference for (conditional) k-DPPs plus a brute-force oracle.

The greedy search maintains an incremental Cholesky factorization: after t
consumed items each candidate i carries a partial factor column c_i and a
squared pivot d_i^2 = L_ii - ||c_i||^2, which is exactly the determinant
gain of adding i.  Consuming an item costs one kernel row and a rank-one
update over all n candidates, so k picks run in O(k^2 n) plus k row reads,
with k factor rows of n.  The rows of items held from earlier calls are
fetched in one batch.  ``greedy_map_rows`` on features Z never forms the
kernel: it streams Z, or on large Z reads only rows that can win.
``greedy_map_projector`` runs on a projector I - B^T B in B's q
coordinates and reads no kernel row at all.

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

# greedy_map_rows goes lazy from LAZY_MIN_ENTRIES entries of Z up: below,
# a kernel row per pick beats the lazy bookkeeping (crossover, 2-core VM).
LAZY_MIN_ENTRIES = 1 << 17
# Rows of Z one lazy refresh block gathers, in bytes: 256 KB blocks raised a
# paper-64 run's peak RSS by 0.8 MB, 64 KB ones by 0.15 MB (same VM).
REFRESH_BYTES = 1 << 16


@dataclass
class MapResult:
    """Outcome of a MAP search: picked indices plus cumulative log-volumes."""

    indices: list
    stepwise_logdets: list
    frame: np.ndarray = None  # Cholesky rows, kept only when asked


def _start(gain, k, preselected):
    """Checks k; returns the held list and the floor."""
    if k < 0:
        raise InvalidInputError("k must be non-negative")
    scale = max(float(np.max(gain)), 0.0) if gain.size else 0.0
    return [int(p) for p in preselected], EARLY_STOP_REL * scale


def _greedy(diag, kernel_rows, k, preselected, rank=math.inf, frame=False):
    """Run the greedy on a kernel read by rows; returns a MapResult.

    ``kernel_rows(idx)`` returns rows of the kernel whose diagonal ``diag``
    is updated in place: one row for an integer, a stack for a list.  The
    ``preselected`` items are consumed first, their rows fetched in one
    call, then up to k picks fetch one row each.  A consumed item adds one
    Cholesky row and has its gain pinned to -inf; one whose gain already
    sits at the rank floor spans no new direction and adds no row.  The
    floor is EARLY_STOP_REL times the largest initial diagonal.  A kernel
    of known ``rank`` gets no more Cholesky rows than that, so no pick is
    made once it is spanned, however large the rounding noise left in
    ``diag``.  With ``frame`` the result keeps the t Cholesky rows, read off
    the buffer allocated at their cap.
    """
    preselected, floor = _start(diag, k, preselected)
    held, n = len(preselected), diag.shape[0]
    rows = np.empty((min(held + k, rank), n))
    square = np.empty(n)
    held_rows = kernel_rows(preselected) if held else None
    t = 0
    chosen, logdets, total = [], [], 0.0
    for step in range(held + k):
        if step < held:
            j = preselected[step]
            row = held_rows[step]
        else:
            j = int(diag.argmax()) if n else None
            if j is None or diag[j] <= floor or t == rank:
                break
            row = kernel_rows(j)
        d2 = float(diag[j])
        if d2 > floor and t < rank:
            e = rows[t]  # written in place: e = (row - c_j^T C) / d_j
            np.matmul(rows[:t, j], rows[:t], out=e)
            np.subtract(row, e, out=e)
            e /= math.sqrt(d2)
            t += 1
            diag -= np.square(e, out=square)
        diag[j] = -np.inf
        if step >= held:
            chosen.append(j)
            total += math.log(d2)
            logdets.append(total)
    return MapResult(indices=chosen, stepwise_logdets=logdets,
                     frame=rows[:t] if frame else None)


def _lazy_greedy(Z, k, preselected=()):
    """``_greedy`` on the kernel Z Z^T, refreshing only gains that can win.

    The consumed rows span an orthonormal frame U (Gram-Schmidt, pivot
    sqrt(gain)); a gain ||z_i||^2 - ||U z_i||^2 is stamped with the frame
    size it was computed at.  Gains only fall as U grows, so a stale gain
    bounds the current one, and a pick refreshes the stale gains that reach
    the best current one (ties too: argmax favors the lower index).  Each
    consumed item costs one projection c = U z_j, giving its gain and its
    frame row (z_j - c U) / sqrt(gain).  Held items go first, in a loop of
    their own; the floor and the rank cap (Z's width) act as in ``_greedy``.
    """
    n, m = Z.shape
    norms = np.einsum("ij,ij->i", Z, Z)
    gain = norms.copy()
    preselected, floor = _start(gain, k, preselected)
    frame = np.empty((min(len(preselected) + k, m), m))
    stamp = np.zeros(n, dtype=np.intp)
    block = max(1, REFRESH_BYTES // (8 * m))
    t = 0

    def refresh(idx):
        for part in (idx[a:a + block] for a in range(0, idx.size, block)):
            proj = Z[part] @ frame[:t].T
            gain[part] = norms[part] - np.einsum("ij,ij->i", proj, proj)
        stamp[idx] = t

    def project(j):  # refreshes j's gain; returns c = U z_j
        c = frame[:t] @ Z[j]
        gain[j], stamp[j] = norms[j] - np.einsum("i,i->", c, c), t
        return c

    def consume(j, c):  # pins j's gain, after its frame row if one is due
        nonlocal t
        if t < m and gain[j] > floor:
            frame[t] = (Z[j] - c @ frame[:t]) / math.sqrt(gain[j])
            t += 1
        gain[j] = -np.inf

    for j in preselected:  # a held gain is its norm until projected here
        consume(j, project(j) if t < m and gain[j] > floor else None)
    chosen, gains = [], []
    while len(chosen) < k and n and t < m:
        j, c = int(gain.argmax()), None
        if stamp[j] < t and gain[j] > floor:
            c = project(j)
            stale = np.flatnonzero(gain >= max(gain[j], floor))
            refresh(stale[stamp[stale] < t])
            if (best := int(gain.argmax())) != j:
                j, c = best, None
        if gain[j] <= floor:
            break
        chosen.append(j)
        gains.append(float(gain[j]))
        consume(j, frame[:t] @ Z[j] if c is None else c)
    logdets = list(itertools.accumulate(map(math.log, gains)))
    return MapResult(indices=chosen, stepwise_logdets=logdets)


def greedy_map(L, k, preselected=()):
    """Greedy MAP selection of k items maximizing log det of the kernel L.

    Reads one row of L per pick.  ``preselected`` items condition the geometry
    first (their gains are consumed but they are not reported), implementing
    selection given an already-held set.  Bitwise-equal gains break toward
    the lowest index; between gains equal only in exact arithmetic, rounding
    decides.  A rank-floor hit before k picks gives a shorter result.
    """
    diag = np.diag(L).copy()
    return _greedy(diag, lambda idx: L[idx], k, preselected)


def pivoted_cholesky(L, k):
    """greedy_map's Cholesky rows on L: (F, floor), F t x n with t <= k.

    The greedy is a pivoted Cholesky: it stops at k pivots or once every
    remaining pivot is at most ``floor``, EARLY_STOP_REL times L's largest
    diagonal, and then L - F^T F has its diagonal within the floor.  Its
    off-diagonal is too for a PSD L, as for any PSD residual, but an
    indefinite L can leave more there.
    """
    diag = np.diag(L).copy()
    floor = _start(diag, k, ())[1]
    return _greedy(diag, lambda idx: L[idx], k, (), frame=True).frame, floor


def greedy_map_rows(Z, k, preselected=()):
    """greedy_map on the kernel Z Z^T, never formed, in one of two forms.

    From LAZY_MIN_ENTRIES entries of Z up, a pick reads only the rows that
    could win it (about 30 of a 5 000-row ground truth), keeping n-vectors
    and an m-wide frame.  Below, it reads Z[preselected] Z^T once and one
    matvec over all of Z per pick, keeping (held + k) Cholesky rows of n.
    The kernel's rank is at most Z's width.  The forms round differently,
    so exact ties may break differently between them.
    """
    n, m = Z.shape
    if n * m >= LAZY_MIN_ENTRIES:
        return _lazy_greedy(Z, k, preselected)
    diag = np.einsum("ij,ij->i", Z, Z)
    return _greedy(diag, lambda idx: Z[idx] @ Z.T, k, preselected, rank=m)


def greedy_map_projector(B, k, frame_from=0):
    """greedy_map on the projector H = I - B^T B, B with q orthonormal rows.

    The greedy runs in B's q coordinates, never reading a row of H.  After
    t picks S it holds W (t x q) with I + W^T W = (I - B_S B_S^T)^{-1}, so
    column j's gain is 1 - ||b_j||^2 - ||W b_j||^2, b_j = B[:, j].  A pick
    j reads c = W b_j off the kept rows of W B, appends
    w = (b_j + W^T c) / sqrt(gain_j) and lowers every gain by (w B)^2:
    O(qm + tq) flops, where a kernel row costs O(qm + tm).  Gains are
    measured against the projector's norm 1, so a kernel that is zero up
    to rounding yields no picks.

    On a projector kernel the incremental Cholesky rows are the
    Gram-Schmidt frame of the picked columns: orthonormal, in pick order,
    spanning the same space.  Row t is -w_t B, except that it is exactly 0
    on the columns picked before it and sqrt(gain) on its own.  Rows
    ``frame_from`` on are returned as ``frame``, so the greedy doubles as
    an eigensolver-free basis of H's range.
    """
    if k < 0:
        raise InvalidInputError("k must be non-negative")
    q, m = B.shape
    gain = 1.0 - np.einsum("ij,ij->j", B, B)
    W = np.empty((min(k, m), q))
    WB = np.empty((len(W), m))  # w_t B, kept: c = W b_j is its column j
    drop = np.empty(m)
    chosen, gains = [], []
    for t in range(len(W)):
        j = int(gain.argmax())
        d2 = float(gain[j])
        if d2 <= EARLY_STOP_REL:
            break
        w = W[t]
        np.dot(WB[:t, j], W[:t], out=w)
        w += B[:, j]
        w /= math.sqrt(d2)
        gain -= np.square(np.dot(w, B, out=WB[t]), out=drop)
        gain[j] = -np.inf
        chosen.append(j)
        gains.append(d2)
    t = len(chosen)
    frame = np.negative(WB[frame_from:t])
    on_picks = np.triu(frame[:, chosen], frame_from + 1)
    on_picks[np.arange(len(frame)), np.arange(frame_from, t)] = \
        np.sqrt(gains[frame_from:])
    frame[:, chosen] = on_picks
    logdets = list(itertools.accumulate(map(math.log, gains)))
    return MapResult(indices=chosen, stepwise_logdets=logdets, frame=frame)


def brute_force_map(Z, k):
    """Exact MAP of the kernel Z Z^T over every k-subset of Z's rows, each
    subset's kernel from its own rows; ties break lexicographically.

    Guarded: refuses instances with more than 10^6 subsets.
    """
    n = Z.shape[0]
    if not 0 < k <= n:
        raise InvalidInputError(f"k must be in 1..{n}, got {k}")
    if math.comb(n, k) > BRUTE_FORCE_GUARD:
        raise TooLargeError(f"C({n},{k}) exceeds {BRUTE_FORCE_GUARD} subsets")
    kernels = ((list(J), Z[list(J)] @ Z[list(J)].T)
               for J in itertools.combinations(range(n), k))
    best, sub = max(kernels, key=lambda pair: np.linalg.det(pair[1]))
    return MapResult(indices=best, stepwise_logdets=_prefix_logdets(sub))


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
