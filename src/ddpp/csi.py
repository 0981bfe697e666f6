"""Feedback projector: computation, budgeted compression, and pre-coding.

The center summarizes every sample it has received from *other* sources as
an orthogonal projector H onto the complement of their span.  Sources
pre-code their features with a square root of (an approximation of) H
before running local greedy selection, which steers new picks away from
directions the center already covers.  The greedy reads only kernel rows,
so ``precode`` returns features whose Gram is the pre-coded kernel rather
than the pre-coded features themselves.

A feedback message may carry at most R*m matrix elements.  The budget is
split between a dense principal block on greedily chosen dimensions
(r0 rows/columns, (r0^2+r0)/2 packed elements) and a truncated
eigendecomposition of what the block misses (r1 vectors, r1*m elements).
The center holds H as the orthonormal basis of what it received
(``projector_in_frame``) and builds both parts from one greedy MAP run on
H; it forms no m x m matrix.  The svd ablation is that packet with no block.

Contract: finite float64 input, checked where data enters the package, and
packets validated where a source decodes them, not where they are built.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import dpp
from .errors import InvalidInputError
from .linalg import (RANK_TOL, clamp_psd, orthonormal_row_basis, psd_eigh,
                     spectral_decomp, symmetrize)

# A principal block of at least COMPLEMENT_MIN_DIMS dims is rooted through
# its complement I - B; below, one eigh is faster (measured crossover, one
# BLAS thread).  Alone, the complement wins from 64 dims up; with two source
# threads (tcp) its greedy's Python loop holds the GIL that eigh releases,
# and it breaks even only at about 128.
COMPLEMENT_MIN_DIMS = 128


@dataclass(frozen=True)
class Projector:
    """H = I - Q^T Q, the projector onto the complement of Q's rows.

    ``basis`` is Q: q x m with orthonormal rows spanning what the center
    received.  The feedback path reads H from Q (rows, blocks) and never
    forms the m x m matrix.
    """

    basis: np.ndarray

    @property
    def dims(self):
        return self.basis.shape[1]

    def block(self, dims):
        """H restricted to rows and columns ``dims``: I - Q_S^T Q_S."""
        Q_S = self.basis[:, list(dims)]
        return symmetrize(np.eye(Q_S.shape[1]) - Q_S.T @ Q_S)

    @property
    def matrix(self):
        """The dense m x m projector, built on demand."""
        return self.block(range(self.dims))


@dataclass(frozen=True)
class CsiPacket:
    """Compressed projector: dense principal block plus spectral residual.

    ``principal_block`` is the lower triangle of H restricted to
    ``selected_dims``, packed row-major.  ``residual_vectors`` holds r1
    eigenvectors (one per row) scaled by ``residual_values`` on reconstruction.
    """

    dims: int
    selected_dims: tuple
    principal_block: np.ndarray
    residual_values: np.ndarray
    residual_vectors: np.ndarray

    @property
    def block_size(self):
        return len(self.selected_dims)

    @property
    def residual_rank(self):
        return len(self.residual_values)

    @property
    def element_count(self):
        r0 = self.block_size
        return (r0 * r0 + r0) // 2 + self.residual_rank * self.dims

    def validate(self):
        r0 = self.block_size
        if len(self.principal_block) != (r0 * r0 + r0) // 2:
            raise InvalidInputError("principal block length mismatch")
        if self.residual_vectors.shape != (self.residual_rank, self.dims):
            raise InvalidInputError("residual vector shape mismatch")
        for name in ("principal_block", "residual_values", "residual_vectors"):
            if not np.isfinite(getattr(self, name)).all():
                raise InvalidInputError(f"{name} contains non-finite entries")
        dims = self.selected_dims
        if dims and (min(dims) < 0 or max(dims) >= self.dims
                     or not all(map(operator.lt, dims, dims[1:]))):
            raise InvalidInputError("selected dims must be strictly increasing and < dims")
        return self


def pack_lower_triangle(B):
    """Row-major packed lower triangle of a square matrix."""
    return np.ascontiguousarray(B[np.tri(B.shape[0], dtype=bool)],
                                dtype=np.float64)


def unpack_lower_triangle(packed, r):
    """Inverse of pack_lower_triangle, mirrored to a full symmetric matrix."""
    if len(packed) != (r * r + r) // 2:
        raise InvalidInputError("packed triangle length mismatch")
    B = np.zeros((r, r))
    lower = np.tri(r, dtype=bool)  # row-major, as pack_lower_triangle
    B[lower] = packed
    B.T[lower] = packed
    return B


def projector_in_frame(Z_Y, frame):
    """Projector off rowspace(Z_Y), for rows in the span of ``frame``'s.

    ``frame`` has orthonormal rows, m wide (the identity holds any rows).
    The rank-revealing SVD runs on Z_Y's coordinates in it, q x r, not
    q x m, with Z_Y's singular values.  No rows give I; rows spanning all
    m dimensions get the basis I, so H is exactly 0.
    """
    Q = orthonormal_row_basis(Z_Y @ frame.T) @ frame
    return Projector(basis=np.eye(Q.shape[1]) if Q.shape[0] == Q.shape[1] else Q)


def split_budget(R, m, block_fraction=0.5):
    """Largest (r0, r1) with (r0^2+r0)/2 + r1*m within the R*m budget.

    r0 is the largest block size whose packed triangle fits in
    block_fraction of the budget; r1 spends what remains on spectral terms.
    With a nonzero block fraction a packet is never empty: a single diagonal
    element always fits in any valid budget.  The budget is a setting
    ``ExperimentConfig`` checks when built: R*m finite and at least one
    element, block_fraction in [0, 1].
    """
    budget = R * m
    # r(r+1)/2 <= F  <=>  (2r+1)^2 <= 8F+1, for the integer F below.
    r0 = min(m, (math.isqrt(8 * int(block_fraction * budget) + 1) - 1) // 2)
    r1 = min(int((budget - (r0 * r0 + r0) / 2) // m), m)
    if r0 == 0 and r1 == 0 and block_fraction > 0:
        r0 = 1
    return r0, r1


def _residual_terms(H, selected, frame, r1):
    """Top-r1 eigenpairs of R = H minus its block on S = ``selected``.

    R's largest eigenvalue is 1, and its eigenspace is exactly
    E = {x : x_S = 0, Qx = 0}.  ``frame`` holds the block greedy's
    Cholesky rows after S: past S the greedy runs on the conditional
    kernel, which is the projector onto E, so they are a greedy frame of E,
    exactly zero on S (``greedy_map_projector`` writes the zeros), all with
    value 1.  They come first: canonical, where an eigensolver returns an
    arbitrary basis of E.  Only when r1 exceeds dim E, where the greedy
    stops short, is R eigendecomposed, on E's complement (at most |S| + q
    dims).  Non-positive values are dropped.
    """
    values, vectors = np.ones(len(frame)), frame
    extra = r1 - len(frame)
    if extra > 0:
        m, r0 = H.dims, len(selected)
        off = np.setdiff1d(np.arange(m), selected)
        # Rows of W: an orthonormal basis of Q's rows with their S columns
        # removed; E is the null space of W on the off-S coordinates.
        W = orthonormal_row_basis(H.basis[:, off])
        B = np.zeros((r0 + W.shape[0], m))  # orthonormal basis of E's complement
        B[np.arange(r0), selected] = 1.0
        B[r0:, off] = W
        G = H.basis @ B.T
        C = np.eye(B.shape[0]) - G.T @ G  # H on span(B)
        C[:r0, :r0] = 0.0  # minus the block the packet carries
        w, V = spectral_decomp(symmetrize(C))
        values = np.concatenate([values, w[:extra]])
        vectors = np.vstack([vectors, V[:, :extra].T @ B])
    keep = values > RANK_TOL  # R's top eigenvalue lies in [0, 1]
    return values[keep], vectors[keep]


def _packet(H, selected, values=None, vectors=None):
    """H's block on ``selected`` plus residual terms (none unless given)."""
    return CsiPacket(
        dims=H.dims, selected_dims=tuple(selected),
        principal_block=pack_lower_triangle(H.block(selected)),
        residual_values=np.zeros(0) if values is None else values,
        residual_vectors=np.zeros((0, H.dims)) if vectors is None else vectors)


def compress(H, R, block_fraction=0.5):
    """Budgeted packet: greedy principal block plus spectral residual terms.

    One greedy MAP on H, run in Q's q coordinates, makes up to r0 + r1
    picks.  The first r0, sorted, are the block dimensions S (fewer once
    H's rank is spent); the greedy is prefix-stable, so they are what an
    r0-pick greedy would choose.  Its Cholesky rows after them, the only
    frame rows it builds, are the residual's frame of E
    (``_residual_terms``).

    With a block fraction of 0 it is the svd ablation: H's nonzero
    eigenvalues are all 1, so the greedy frame of its columns is a top
    eigenbasis.  Past rank(H) the eigensolver of ``_residual_terms`` runs
    on span(Q), where H's values are rounding, and drops them.
    """
    r0, r1 = split_budget(R, H.dims, block_fraction)
    greedy = dpp.greedy_map_projector(H.basis, r0 + r1, frame_from=r0)
    selected = sorted(greedy.indices[:r0])
    return _packet(H, selected,
                   *_residual_terms(H, selected, greedy.frame, r1))


def compress_random_sketch(H, R, rng):
    """Ablation: principal block on uniformly drawn dimensions, no residual."""
    r0, _ = split_budget(R, H.dims, block_fraction=1.0)
    selected = sorted(rng.choice(H.dims, size=r0, replace=False).tolist())
    return _packet(H, selected)


def exact_packet(H):
    """Uncompressed feedback: the full projector as one principal block."""
    return _packet(H, range(H.dims))


def reconstruct(packet):
    """Source-side inverse of compress; always symmetric."""
    m = packet.dims
    selected = list(packet.selected_dims)
    block = unpack_lower_triangle(packet.principal_block, len(selected))
    out = np.zeros((m, m))
    out[np.ix_(selected, selected)] = block
    if packet.residual_rank:
        V = packet.residual_vectors
        out = out + (V.T * packet.residual_values) @ V
    return symmetrize(out)


def _root_factor(M, momentum):
    """F with F F^T = 2 M^{1/2} + M (momentum) or M, for PSD M = U w U^T."""
    w, U = psd_eigh(symmetrize(M))
    root = np.sqrt(w)
    return U * (np.sqrt(2.0 * root + w) if momentum else root)


def _block_root(B, momentum):
    """``_root_factor`` of a principal block B, through its complement.

    A projector's block differs from I by C = I - B of rank t <= q.  From
    COMPLEMENT_MIN_DIMS dims up, the greedy's pivoted Cholesky C = L^T L
    and the t x t eigh L L^T = U diag(s) U^T give B's eigenvalues w = 1 - s
    (1 elsewhere), and F = f(1) I + L^T U diag(g) U^T L is symmetric with
    F F = f(B)^2, for f(w) = (2 w^{1/2} + w)^{1/2} with momentum, w^{1/2}
    without, and g = (f(w) - f(1)) / s, written free of cancellation.  B's
    eigh runs instead below that size, or when C - L^T L leaves the
    greedy's floor (C is not PSD: B has an eigenvalue above 1).
    """
    r0 = len(B)
    L = _complement_factor(B) if r0 >= COMPLEMENT_MIN_DIMS else None
    if L is None:
        return _root_factor(B, momentum)
    s, U = np.linalg.eigh(L @ L.T)
    w = clamp_psd(1.0 - s)
    root = np.sqrt(w)
    # f(w)^2 - f(1)^2 = (w - 1) slope, and 1 - w = min(s, 1) after the clamp
    if momentum:
        one, value = math.sqrt(3.0), np.sqrt(2.0 * root + w)
        slope = 1.0 + 2.0 / (1.0 + root)
    else:
        one, value, slope = 1.0, root, 1.0
    g = -slope / ((value + one) * np.maximum(s, 1.0))
    UL = U.T @ L
    F = (UL.T * g) @ UL
    F.flat[::r0 + 1] += one
    return F


def _complement_factor(B):
    """L with I - B = L^T L, t x r0; None if C = I - B is not PSD.

    The greedy's pivoted Cholesky of C, up to r0 pivots, kept when the
    residual C - L^T L lies within the greedy's floor, as a PSD C's does;
    C is freed on return, before the caller's factor is built.
    """
    C = np.negative(B)
    C.flat[::len(B) + 1] += 1.0
    L, floor = dpp.pivoted_cholesky(C, len(B))
    C -= L.T @ L  # the residual, in C's buffer
    return L if -floor <= C.min() and C.max() <= floor else None


def precode(Z, packet, momentum=True):
    """Features whose Gram matrix is W W^T, the pre-coded kernel.

    W = Z (I + H^{1/2}) with momentum, Z H^{1/2} without.  H is the matrix
    ``reconstruct(packet)`` would build, but no m x m array is formed.
    With P = [coordinate vectors of S, Q^T], Q's rows (from a Householder
    QR, no rank decision) an orthonormal basis holding the residual
    vectors' span off S, H = P M P^T for a k x k matrix M = U diag(w) U^T
    (k <= r0 + r1), and H^{1/2} = P U diag(w^{1/2}) U^T P^T.  Then
    (I + H^{1/2})^2 = I + P F F^T P^T with F = U diag((2 w^{1/2} +
    w)^{1/2}), so [Z, Z P F] has Gram W W^T; without momentum F =
    U diag(w^{1/2}) and Z P F alone does.  The greedy reads only kernel
    rows, so W itself is never needed.  H's negative eigenvalues are M's.

    The packets the program builds have residual vectors exactly 0 on S
    (all but those of ``_residual_terms``' eigensolver path), so M's
    off-diagonal block is exactly 0: M is block-diagonal, its square root
    too, and the r0 x r0 and r1 x r1 blocks are factored apart, each
    product (Z_S F0, Z Q^T F1) written into the output.  Any other packet
    factors all of M.  The r0 x r0 block differs from I by rank at most
    q, the received rows' count, so a large one is rooted through that
    complement with a q x q eigh (``_block_root``): at m = 512, q = 54, a
    54 x 54 one in place of 151 x 151 (proposed) or 214 x 214
    (random_sketch).

    The momentum form is conservative: imperfect feedback then shrinks
    already-covered directions instead of deleting them outright.
    """
    m = packet.dims
    if Z.shape[1] != m:
        raise InvalidInputError(f"expected {m} feature columns, got {Z.shape[1]}")
    selected = list(packet.selected_dims)
    r0 = len(selected)
    V = packet.residual_vectors
    off = np.ones(m, dtype=bool)
    off[selected] = False
    Qt = np.zeros((m, min(len(V), m - r0)))  # Q^T: zero on S, so P is orthonormal
    Qt[off] = np.linalg.qr(V[:, off].T)[0]
    # X P = [X_S, X Q^T]: P's first r0 columns are coordinate vectors.
    VP = np.hstack([V[:, selected], V @ Qt])
    M = (VP.T * packet.residual_values) @ VP
    M[:r0, :r0] += unpack_lower_triangle(packet.principal_block, r0)
    k = M.shape[0]
    if M[:r0, r0:].any():  # coupled blocks: one factor of all of M
        blocks = [(0, k, _root_factor(M, momentum))]
    else:  # block-diagonal M: a factor of each block
        blocks = [(0, r0, _block_root(M[:r0, :r0], momentum)),
                  (r0, k, _root_factor(M[r0:, r0:], momentum))]
    ZP = np.empty((Z.shape[0], k))  # Z P, gathered and multiplied in place
    np.take(Z, selected, axis=1, out=ZP[:, :r0])
    np.matmul(Z, Qt, out=ZP[:, r0:])
    lead = m if momentum else 0
    out = np.empty((Z.shape[0], lead + k))
    if momentum:
        out[:, :m] = Z
    for a, b, F in blocks:
        np.matmul(ZP[:, a:b], F, out=out[:, lead + a:lead + b])
    return out
