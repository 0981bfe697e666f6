"""Feedback projector: computation, budgeted compression, and pre-coding.

The center summarizes every sample it has received from *other* sources as
an orthogonal projector H onto the complement of their span.  Sources
multiply their features by a square root of (an approximation of) H before
running local greedy selection, which steers new picks away from directions
the center already covers.

A feedback message may carry at most R*m matrix elements.  The budget is
split between a dense principal block on greedily chosen dimensions
(r0 rows/columns, (r0^2+r0)/2 packed elements) and a truncated
eigendecomposition of what the block misses (r1 vectors, r1*m elements).
The center holds H as the orthonormal basis of what it received and
builds both parts from greedy MAP frames; it forms no m x m matrix.

Contract: finite float64 input, checked where data enters the package, and
packets validated where they are built or decoded, not on every use.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import dpp
from .errors import InvalidInputError
from .linalg import (RANK_TOL, orthonormal_row_basis, psd_sqrt,
                     spectral_decomp, symmetrize)


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

    @property
    def rank(self):
        return self.dims - self.basis.shape[0]

    def block(self, dims):
        """H restricted to rows and columns ``dims``: I - Q_S^T Q_S."""
        Q_S = self.basis[:, list(dims)]
        return symmetrize(np.eye(Q_S.shape[1]) - Q_S.T @ Q_S)

    @property
    def matrix(self):
        """The dense m x m projector, built on demand (uncompressed feedback)."""
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
        dims = list(self.selected_dims)
        if any(b <= a for a, b in zip(dims, dims[1:])) or \
                any(not 0 <= d < self.dims for d in dims):
            raise InvalidInputError("selected dims must be strictly increasing and < dims")
        return self


def pack_lower_triangle(B):
    """Row-major packed lower triangle of a square matrix."""
    r = B.shape[0]
    if r == 0:
        return np.zeros(0)
    i, j = np.tril_indices(r)
    return np.ascontiguousarray(B[i, j], dtype=np.float64)


def unpack_lower_triangle(packed, r):
    """Inverse of pack_lower_triangle, mirrored to a full symmetric matrix."""
    if len(packed) != (r * r + r) // 2:
        raise InvalidInputError("packed triangle length mismatch")
    B = np.zeros((r, r))
    i, j = np.tril_indices(r)
    B[i, j] = packed
    B[j, i] = packed
    return B


def compute_projector(Z_Y, m):
    """Projector onto the orthogonal complement of rowspace(Z_Y).

    Built from an orthonormal basis rather than the textbook inverse of
    Z_Y Z_Y^T so that linearly dependent received samples are handled.
    An empty Z_Y yields the identity (nothing to suppress); rows spanning
    all m dimensions get the basis I, so H is the exact zero, not rounding
    noise.
    """
    if Z_Y is None or np.size(Z_Y) == 0:
        return Projector(basis=np.zeros((0, m)))
    if Z_Y.shape[1] != m:
        raise InvalidInputError(f"expected {m} columns, got {Z_Y.shape[1]}")
    Q = orthonormal_row_basis(Z_Y)
    return Projector(basis=np.eye(m) if Q.shape[0] == m else Q)


def split_budget(R, m, block_fraction=0.5):
    """Largest (r0, r1) with (r0^2+r0)/2 + r1*m within the R*m budget.

    r0 is the largest block size whose packed triangle fits in
    block_fraction of the budget; r1 spends what remains on spectral terms.
    With a nonzero block fraction a packet is never empty: a single diagonal
    element always fits in any valid budget.
    """
    if R * m < 1:
        raise InvalidInputError("budget R*m must be at least one element")
    if not 0 <= block_fraction <= 1:
        raise InvalidInputError("block_fraction must lie in [0, 1]")
    budget = R * m
    # r(r+1)/2 <= F  <=>  (2r+1)^2 <= 8F+1, for the integer F below.
    r0 = min(m, (math.isqrt(8 * int(block_fraction * budget) + 1) - 1) // 2)
    r1 = min(int((budget - (r0 * r0 + r0) / 2) // m), m)
    if r0 == 0 and r1 == 0 and block_fraction > 0:
        r0 = 1
    return r0, r1


def select_dims(H, r0):
    """Greedy MAP on the projector itself picks the block dimensions.

    Returns sorted indices; fewer than r0 when the projector's rank is
    exhausted first.
    """
    if r0 > H.dims:
        raise InvalidInputError("r0 exceeds dimension count")
    return sorted(dpp.greedy_map_projector(H.basis, r0).indices)


def _residual_terms(H, selected, r1):
    """Top-r1 eigenpairs of R = H minus its block on S = ``selected``.

    R's largest eigenvalue is 1, and its eigenspace is exactly
    E = {x : x_S = 0, Qx = 0}.  A greedy frame of E, all with value 1,
    comes first: it is canonical, where an eigensolver returns an arbitrary
    basis of E.  Only when r1 exceeds dim E is R eigendecomposed, on E's
    complement (at most |S| + q dims).  Non-positive values are dropped.
    """
    m = H.dims
    if r1 <= 0:
        return np.zeros(0), np.zeros((0, m))
    off = np.setdiff1d(np.arange(m), selected)
    # Rows of W: an orthonormal basis of Q's rows with their S columns
    # removed; E is the null space of W on the off-S coordinates.
    W = orthonormal_row_basis(H.basis[:, off])
    frame = dpp.greedy_map_projector(W, r1).frame
    values = np.ones(len(frame))
    vectors = np.zeros((len(frame), m))
    vectors[:, off] = frame
    extra = r1 - len(frame)
    if extra > 0:
        r0 = len(selected)
        B = np.zeros((r0 + W.shape[0], m))  # orthonormal basis of E's complement
        B[np.arange(r0), selected] = 1.0
        B[r0:, off] = W
        G = H.basis @ B.T
        C = np.eye(B.shape[0]) - G.T @ G  # H on span(B)
        C[:r0, :r0] = 0.0  # minus the block the packet carries
        dec = spectral_decomp(symmetrize(C))
        values = np.concatenate([values, dec.eigenvalues[:extra]])
        vectors = np.vstack([vectors, dec.eigenvectors[:, :extra].T @ B])
    keep = values > RANK_TOL  # R's top eigenvalue lies in [0, 1]
    return values[keep], vectors[keep]


def compress(H, R, block_fraction=0.5):
    """Budgeted packet: greedy principal block plus spectral residual terms."""
    r0, r1 = split_budget(R, H.dims, block_fraction)
    selected = select_dims(H, r0)
    values, vectors = _residual_terms(H, selected, r1)
    return CsiPacket(dims=H.dims, selected_dims=tuple(selected),
                     principal_block=pack_lower_triangle(H.block(selected)),
                     residual_values=values, residual_vectors=vectors).validate()


def compress_svd(H, R):
    """Ablation: spend the whole budget on floor(R) eigenvectors of H.

    H's nonzero eigenvalues are all 1, so any orthonormal frame of its range
    is a top eigenbasis; the greedy frame of H's columns is a canonical one,
    capped by rank(H).
    """
    frame = dpp.greedy_map_projector(H.basis, min(int(R), H.dims)).frame
    return CsiPacket(dims=H.dims, selected_dims=(),
                     principal_block=np.zeros(0),
                     residual_values=np.ones(len(frame)),
                     residual_vectors=frame).validate()


def compress_random_sketch(H, R, rng):
    """Ablation: principal block on uniformly drawn dimensions, no residual."""
    m = H.dims
    r0, _ = split_budget(R, m, block_fraction=1.0)
    selected = sorted(rng.choice(m, size=r0, replace=False).tolist())
    return CsiPacket(dims=m, selected_dims=tuple(selected),
                     principal_block=pack_lower_triangle(H.block(selected)),
                     residual_values=np.zeros(0),
                     residual_vectors=np.zeros((0, m))).validate()


def exact_packet(H):
    """Uncompressed feedback: the full projector as one principal block."""
    m = H.dims
    return CsiPacket(dims=m, selected_dims=tuple(range(m)),
                     principal_block=pack_lower_triangle(H.matrix),
                     residual_values=np.zeros(0),
                     residual_vectors=np.zeros((0, m))).validate()


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


def precode(Z, packet, momentum=True):
    """Multiply features by W = I + H^{1/2} (momentum) or H^{1/2}.

    H is the matrix ``reconstruct(packet)`` would build, but no m x m array
    is formed.  With P the orthonormal m x k basis of the selected
    coordinates plus the residual vectors' span off them (k <= r0 + r1),
    H = P M P^T for a k x k matrix M, so H^{1/2} = P M^{1/2} P^T exactly
    and its negative eigenvalues are M's.

    The momentum form is conservative: imperfect feedback then shrinks
    already-covered directions instead of deleting them outright.
    """
    m = packet.dims
    if Z.shape[1] != m:
        raise InvalidInputError(f"expected {m} feature columns, got {Z.shape[1]}")
    selected = list(packet.selected_dims)
    r0 = len(selected)
    V = packet.residual_vectors
    off_block = V.copy()
    off_block[:, selected] = 0.0
    Q = orthonormal_row_basis(off_block)
    P = np.zeros((m, r0 + Q.shape[0]))
    P[selected, np.arange(r0)] = 1.0
    P[:, r0:] = Q.T
    VP = V @ P
    M = (VP.T * packet.residual_values) @ VP
    M[:r0, :r0] += unpack_lower_triangle(packet.principal_block, r0)
    root = (Z @ P) @ psd_sqrt(symmetrize(M)) @ P.T
    return Z + root if momentum else root
