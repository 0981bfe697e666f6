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
    """Orthogonal projector sent as feedback; rank = dims - rank(received)."""

    matrix: np.ndarray
    rank: int

    @property
    def dims(self):
        return self.matrix.shape[0]


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
    all m dimensions yield the exact zero projector, not rounding noise.
    """
    if Z_Y is None or np.size(Z_Y) == 0:
        return Projector(matrix=np.eye(m), rank=m)
    if Z_Y.shape[1] != m:
        raise InvalidInputError(f"expected {m} columns, got {Z_Y.shape[1]}")
    Q = orthonormal_row_basis(Z_Y)
    if Q.shape[0] == m:
        return Projector(matrix=np.zeros((m, m)), rank=0)
    H = symmetrize(np.eye(m) - Q.T @ Q)
    return Projector(matrix=H, rank=m - Q.shape[0])


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
    r0 = min(m, (math.isqrt(8 * int(block_fraction * budget) + 1) - 1) // 2)
    # Integer truncation above can land one off; settle exactly.
    while r0 > 0 and (r0 * r0 + r0) / 2 > block_fraction * budget:
        r0 -= 1
    while r0 < m and ((r0 + 1) * (r0 + 2)) / 2 <= block_fraction * budget:
        r0 += 1
    r1 = min(max(int((budget - (r0 * r0 + r0) / 2) // m), 0), m)
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
    return sorted(dpp.greedy_map(H.matrix, r0).indices)


def embed_block(block, selected, m):
    """Place an r0 x r0 block at rows/columns ``selected`` of an m x m zero."""
    out = np.zeros((m, m))
    if len(selected):
        out[np.ix_(selected, selected)] = block
    return out


def _spectral_packet_terms(residual, r1):
    """Top-r1 eigenpairs of the residual; non-positive values are dropped."""
    if r1 <= 0:
        return np.zeros(0), np.zeros((0, residual.shape[0]))
    dec = spectral_decomp(residual)
    values = dec.eigenvalues[:r1]
    keep = values > RANK_TOL * max(abs(dec.eigenvalues[0]), 1.0)
    return values[keep].copy(), dec.eigenvectors[:, :r1].T[keep].copy()


def compress(H, R, block_fraction=0.5):
    """Budgeted packet: greedy principal block plus spectral residual terms."""
    m = H.dims
    r0, r1 = split_budget(R, m, block_fraction)
    selected = select_dims(H, r0)
    block = H.matrix[np.ix_(selected, selected)]
    residual = H.matrix - embed_block(block, selected, m)
    values, vectors = _spectral_packet_terms(residual, r1)
    return CsiPacket(dims=m, selected_dims=tuple(selected),
                     principal_block=pack_lower_triangle(block),
                     residual_values=values, residual_vectors=vectors).validate()


def compress_svd(H, R):
    """Ablation: spend the whole budget on floor(R) eigenvectors of H."""
    r1 = min(int(R), H.dims)
    values, vectors = _spectral_packet_terms(H.matrix, r1)
    return CsiPacket(dims=H.dims, selected_dims=(),
                     principal_block=np.zeros(0),
                     residual_values=values, residual_vectors=vectors).validate()


def compress_random_sketch(H, R, rng):
    """Ablation: principal block on uniformly drawn dimensions, no residual."""
    m = H.dims
    r0, _ = split_budget(R, m, block_fraction=1.0)
    selected = sorted(rng.choice(m, size=r0, replace=False).tolist())
    block = H.matrix[np.ix_(selected, selected)]
    return CsiPacket(dims=m, selected_dims=tuple(selected),
                     principal_block=pack_lower_triangle(block),
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
    r0 = packet.block_size
    block = unpack_lower_triangle(packet.principal_block, r0)
    out = embed_block(block, list(packet.selected_dims), m)
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
