import itertools
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (counted, projector, psd_sqrt, small_dataset,
                      svd_residual_terms)
from ddpp import csi, dpp, engine, linalg
from ddpp.errors import InvalidInputError, NotPsdError


def embed_block(block, selected, m):
    """Place an r0 x r0 block at rows/columns ``selected`` of an m x m zero."""
    out = np.zeros((m, m))
    out[np.ix_(selected, selected)] = block
    return out


def random_projector(rng, m, held_rows):
    Z_Y = rng.normal(size=(held_rows, m))
    return projector(Z_Y), Z_Y


class TestProjectorOfRows:
    """H in the identity frame, which holds any rows; its rank is m minus
    its basis's rows."""

    def test_empty_input_gives_identity(self):
        H = projector(np.zeros((0, 4)))
        assert np.array_equal(H.matrix, np.eye(4))
        assert H.dims - len(H.basis) == 4

    def test_axis_aligned_row(self):
        H = projector(np.array([[1.0, 0.0, 0.0]]))
        assert H.matrix == pytest.approx(np.diag([0.0, 1.0, 1.0]), abs=1e-12)
        assert H.dims - len(H.basis) == 2

    def test_annihilates_held_rows_and_fixes_complement(self):
        rng = np.random.default_rng(200)
        H, Z_Y = random_projector(rng, 6, 3)
        assert np.max(np.abs(H.matrix @ Z_Y.T)) <= 1e-9
        v = rng.normal(size=6)
        v -= Z_Y.T @ np.linalg.solve(Z_Y @ Z_Y.T, Z_Y @ v)  # orthogonal part
        assert H.matrix @ v == pytest.approx(v, abs=1e-9)

    def test_projector_invariants(self):
        rng = np.random.default_rng(201)
        for rows in (1, 3, 5):
            H, Z_Y = random_projector(rng, 8, rows)
            M = H.matrix
            assert np.max(np.abs(M - M.T)) <= 1e-9
            assert np.max(np.abs(M @ M - M)) <= 1e-7
            w = np.linalg.eigvalsh(M)
            assert np.all((np.abs(w) <= 1e-7) | (np.abs(w - 1) <= 1e-7))
            assert H.dims - len(H.basis) == 8 - rows

    def test_rank_deficient_held_rows(self):
        rng = np.random.default_rng(202)
        base = rng.normal(size=(2, 7))
        Z_Y = np.vstack([base, base[0] + base[1]])  # rank 2, 3 rows
        H = projector(Z_Y)
        assert H.dims - len(H.basis) == 5

    def test_rows_spanning_every_dimension_give_exact_zero(self, monkeypatch):
        # nothing is left uncovered: the packet must be empty, not a block
        # of rounding noise charged to the budget
        rng = np.random.default_rng(203)
        H = projector(rng.normal(size=(6, 6)))
        assert H.dims - len(H.basis) == 0 and not H.matrix.any()
        packets = (csi.compress(H, R=2.0), csi.compress(H, 2.0, 0.0))
        assert [p.element_count for p in packets] == [0, 0]
        # a run whose center sends only such packets counts no downlink
        # elements, only the two frames' 46-byte headers
        monkeypatch.setattr(csi, "compress", lambda *args: packets[0])
        cfg = engine.ExperimentConfig(n_sources=2, dims=6, total_select=6,
                                      sparsity=2.0)
        res = engine.run_ddpp(cfg, small_dataset(seed=5, n_sources=2, dims=6,
                                                 total_select=6))
        assert res.ledger["per_source_downlink"] == [0, 0]
        assert res.ledger["downlink_bytes"] == 2 * 46


def first_frame(rows):
    """The center's first frame: ``rows`` extending an empty one."""
    return linalg.extend_frame(np.zeros((0, rows.shape[1])), rows)


class TestProjectorInFrame:
    """One frame of every received row serves each subset's projector."""

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(1, 9), rows=st.integers(1, 12),
           duplicates=st.integers(0, 3), data=st.data(),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_a_dense_basis(self, m, rows, duplicates, data, seed):
        # rows from 12 can span all of m = 9, and duplicates repeat a row
        # or combine two, so subsets may be rank-deficient
        received = held_rows(np.random.default_rng(seed), m, rows, duplicates)
        ids = data.draw(st.lists(st.integers(0, rows - 1), unique=True))
        frame = first_frame(received)
        H = csi.projector_in_frame(received[ids], frame)
        reference = linalg.orthonormal_row_basis(received[ids])
        assert H.basis.shape == reference.shape
        assert np.allclose(H.basis.T @ H.basis, reference.T @ reference,
                           rtol=0, atol=1e-12)

    def test_rows_spanning_every_dimension_give_basis_i(self):
        received = np.random.default_rng(204).normal(size=(7, 5))
        frame = first_frame(received)
        H = csi.projector_in_frame(received[[6, 0, 3, 1, 4]], frame)
        assert np.array_equal(H.basis, np.eye(5))

    def test_the_svd_reads_coordinates_in_the_frame(self, monkeypatch):
        received = np.random.default_rng(205).normal(size=(4, 30))
        frame = first_frame(received)
        calls = counted(monkeypatch, "orthonormal_row_basis", csi)
        csi.projector_in_frame(received[[2, 0]], frame)
        assert [args[0].shape for args, _ in calls] == [(2, 4)]  # not (2, 30)

    def test_nothing_received_gives_identity(self):
        frame = first_frame(np.zeros((0, 4)))
        H = csi.projector_in_frame(np.zeros((0, 4)), frame)
        assert H.basis.shape == (0, 4) and np.array_equal(H.matrix, np.eye(4))


class TestSplitBudget:
    def test_reference_configuration(self):
        assert csi.split_budget(45, 512, 0.5) == (151, 22)

    def test_minimal_budget(self):
        assert csi.split_budget(1 / 8, 8, 0.5) == (1, 0)

    def test_zero_block_fraction_spends_all_on_spectral_terms(self):
        assert csi.split_budget(3.0, 16, 0.0) == (0, 3)

    def test_budget_never_exceeded_on_grid(self):
        for R in (0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0):
            for m in (8, 16, 32, 64):
                if R * m < 1:
                    continue
                for bf in (0.0, 0.25, 0.5, 0.75, 1.0):
                    r0, r1 = csi.split_budget(R, m, bf)
                    assert (r0 * r0 + r0) / 2 + r1 * m <= R * m
                    assert 0 <= r0 <= m and 0 <= r1 <= m

    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(1, 2048),
           R=st.one_of(st.floats(0.0, 4096.0),
                       st.integers(1, 8 * 4096).map(lambda e: e / 8)),
           fraction=st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]),
                              st.floats(0.0, 1.0)))
    def test_closed_form(self, m, R, fraction):
        budget = R * m
        assume(budget >= 1)
        share = fraction * budget
        r0 = max(r for r in range(m + 1) if r * (r + 1) // 2 <= share)
        r1 = min(m, math.floor((Fraction(budget) - r0 * (r0 + 1) // 2) / m))
        if fraction > 0 and r0 == r1 == 0:
            r0 = 1
        assert csi.split_budget(R, m, fraction) == (r0, r1)
        assert r0 * (r0 + 1) // 2 + r1 * m <= Fraction(budget)


def block_dims(H, r0):
    """compress's block dimensions S under a budget that holds an r0 block
    and no residual term."""
    R = (r0 * (r0 + 1) / 2 + 0.5) / H.dims
    return list(csi.compress(H, R, block_fraction=1.0).selected_dims)


class TestSelectDims:
    def test_identity_ties_break_low(self):
        H = csi.Projector(basis=np.zeros((0, 5)))
        assert block_dims(H, 3) == [0, 1, 2]

    def test_zeroed_dimension_skipped(self):
        H = csi.Projector(basis=np.array([[1.0, 0.0, 0.0]]))
        assert block_dims(H, 1) == [1]

    def test_rank_exhaustion_returns_fewer(self):
        rng = np.random.default_rng(210)
        H, _ = random_projector(rng, 6, 4)  # rank 2
        assert len(block_dims(H, 5)) == 2

    def test_greedy_close_to_exhaustive_in_log_domain(self):
        rng = np.random.default_rng(211)
        H, _ = random_projector(rng, 9, 2)
        picked = block_dims(H, 4)
        assert len(picked) == 4
        greedy_det = np.linalg.det(H.matrix[np.ix_(picked, picked)])
        best = max(np.linalg.det(H.matrix[np.ix_(J, J)])
                   for J in itertools.combinations(range(9), 4))
        assert math.log(greedy_det) >= math.log(best) - math.log(1 / (1 - 1 / math.e)) - 1e-9


class TestPackedTriangle:
    @pytest.mark.parametrize("r", [1, 2, 151])
    def test_packs_in_the_order_of_tril_indices(self, r):
        B = np.random.default_rng(r).normal(size=(r, r))
        B = B + B.T
        i, j = np.tril_indices(r)
        packed = csi.pack_lower_triangle(B)
        assert packed.tobytes() == B[i, j].tobytes()
        assert np.array_equal(csi.unpack_lower_triangle(packed, r), B)


class TestCompressReconstruct:
    def test_identity_full_budget_roundtrips_exactly(self):
        m = 6
        H = csi.Projector(basis=np.zeros((0, m)))
        packet = csi.compress(H, R=(m + 1) / 2, block_fraction=1.0)
        assert packet.block_size == m
        assert np.array_equal(csi.reconstruct(packet), np.eye(m))

    def test_block_only_path_matches_embedding(self):
        rng = np.random.default_rng(220)
        H, _ = random_projector(rng, 8, 3)
        packet = csi.compress(H, R=1.0, block_fraction=1.0)  # r1 = 0
        assert packet.residual_rank == 0
        selected = list(packet.selected_dims)
        block = H.matrix[np.ix_(selected, selected)]
        expected = embed_block(block, selected, 8)
        assert csi.reconstruct(packet) == pytest.approx(expected, abs=1e-12)

    def test_spectral_terms_never_increase_residual_error(self):
        rng = np.random.default_rng(221)
        H, _ = random_projector(rng, 16, 4)
        packet = csi.compress(H, R=3.5, block_fraction=0.4)  # r0=6, r1=2
        assert (packet.block_size, packet.residual_rank) <= (6, 2)
        selected = list(packet.selected_dims)
        block = H.matrix[np.ix_(selected, selected)]
        base_err = np.linalg.norm(H.matrix - embed_block(block, selected, 16))
        err = np.linalg.norm(csi.reconstruct(packet) - H.matrix)
        assert err <= base_err + 1e-12

    def test_budget_respected_across_grid(self):
        rng = np.random.default_rng(222)
        for m in (8, 16, 32):
            H, _ = random_projector(rng, m, 3)
            for R in (0.5, 1.0, 2.0):
                if R * m < 1:
                    continue
                for bf in (0.0, 0.5, 1.0):
                    packet = csi.compress(H, R=R, block_fraction=bf)
                    assert packet.element_count <= R * m

    def test_reconstruction_is_psd(self):
        # embedded principal block of a projector plus positive eigen-terms
        rng = np.random.default_rng(223)
        H, _ = random_projector(rng, 12, 4)
        packet = csi.compress(H, R=2.0, block_fraction=0.5)
        w = np.linalg.eigvalsh(csi.reconstruct(packet))
        assert w.min() >= -1e-9

    def test_roundtrip_symmetry(self):
        rng = np.random.default_rng(224)
        H, _ = random_projector(rng, 10, 3)
        out = csi.reconstruct(csi.compress(H, R=2.5, block_fraction=0.5))
        assert np.max(np.abs(out - out.T)) <= 1e-12

    def test_svd_variant_exact_at_full_rank_budget(self):
        rng = np.random.default_rng(225)
        H, _ = random_projector(rng, 10, 3)  # rank 7
        packet = csi.compress(H, R=8, block_fraction=0.0)
        assert np.max(np.abs(csi.reconstruct(packet) - H.matrix)) <= 1e-9

    def test_random_sketch_block_dims_within_budget(self):
        rng = np.random.default_rng(226)
        H, _ = random_projector(rng, 12, 2)
        packet = csi.compress_random_sketch(H, R=2.0, rng=np.random.default_rng(0))
        assert packet.residual_rank == 0
        assert packet.element_count <= 2.0 * 12

    def test_exact_packet_roundtrip(self):
        rng = np.random.default_rng(227)
        H, _ = random_projector(rng, 7, 2)
        packet = csi.exact_packet(H)
        assert np.max(np.abs(csi.reconstruct(packet) - H.matrix)) <= 1e-15

    def test_reconstruct_rejects_malformed(self):
        packet = csi.CsiPacket(dims=4, selected_dims=(0, 1),
                               principal_block=np.zeros(2),  # needs 3
                               residual_values=np.zeros(0),
                               residual_vectors=np.zeros((0, 4)))
        with pytest.raises(InvalidInputError):
            csi.reconstruct(packet)

    @pytest.mark.parametrize("dims, ok", [
        ((), True), ((0,), True), ((0, 3), True), ((1, 1), False),
        ((2, 1), False), ((-1, 2), False), ((0, 4), False),
        ((2**64 - 1,), False), ((3, 2**63), False)])  # a decoded u64
    def test_validate_checks_selected_dims_order_and_range(self, dims, ok):
        packet = make_packet(4, dims, np.eye(len(dims)), [], [])
        if ok:
            assert packet.validate() is packet
        else:
            with pytest.raises(InvalidInputError, match="strictly increasing"):
                packet.validate()

    @pytest.mark.parametrize("field", ["principal_block", "residual_values",
                                       "residual_vectors"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_validate_rejects_non_finite(self, field, bad):
        rng = np.random.default_rng(228)
        H, _ = random_projector(rng, 8, 3)
        packet = csi.compress(H, R=2.5, block_fraction=0.5)
        getattr(packet, field).flat[0] = bad
        with pytest.raises(InvalidInputError, match=field):
            packet.validate()


def dense_residual_terms(M, selected, r1):
    """The reference residual terms: dense eigh of H minus its block on
    ``selected``, top r1 pairs, non-positive values dropped."""
    residual = M - embed_block(M[np.ix_(selected, selected)], selected, len(M))
    w, V = np.linalg.eigh(residual)
    values, vectors = w[::-1][:r1], V[:, ::-1][:, :r1].T
    keep = values > linalg.RANK_TOL
    return residual, values[keep], vectors[keep]


def assert_matches_dense(H, packet, target, values, vectors):
    """``packet``'s spectral terms are top eigenpairs of ``target`` and
    reconstruct H as well as the reference terms ``values``/``vectors``."""
    V = packet.residual_vectors
    assert packet.residual_values == pytest.approx(values, abs=1e-9)
    assert V @ V.T == pytest.approx(np.eye(len(V)), abs=1e-9)
    if len(V):
        assert np.max(np.linalg.norm(
            V @ target - packet.residual_values[:, None] * V, axis=1)) <= 1e-9
    reference = csi.CsiPacket(
        dims=packet.dims, selected_dims=packet.selected_dims,
        principal_block=packet.principal_block, residual_values=values,
        residual_vectors=vectors.reshape(len(values), packet.dims))
    assert packet.element_count == reference.element_count
    M = H.matrix
    assert np.linalg.norm(csi.reconstruct(packet) - M) == pytest.approx(
        np.linalg.norm(csi.reconstruct(reference) - M), abs=1e-9)


def held_rows(rng, m, rows, duplicates):
    """``rows`` random rows; with ``duplicates`` the last ones repeat
    combinations of the first, so their span is rank-deficient."""
    Z = rng.normal(size=(rows, m))
    for i in range(min(duplicates, rows - 1)):
        Z[rows - 1 - i] = Z[0] + i * Z[min(1, rows - 1)]
    return Z


def check_compress_against_dense(H, R, block_fraction):
    """compress equals the dense-eigh reference and the packet of an
    r0-pick greedy plus ``svd_residual_terms``; returns (r1, dim E)."""
    packet = csi.compress(H, R, block_fraction)
    r0, r1 = csi.split_budget(R, H.dims, block_fraction)
    selected = list(packet.selected_dims)
    assert selected == sorted(dpp.greedy_map_projector(H.basis, r0).indices)
    values, vectors = svd_residual_terms(H, selected, r1)
    assert packet.residual_vectors.shape == vectors.shape
    assert np.allclose(packet.residual_values, values, rtol=0, atol=1e-12)
    assert np.allclose(packet.residual_vectors, vectors, rtol=0, atol=1e-12)
    # the frame of E is exactly zero on S, and the eigensolver's terms agree
    assert np.array_equal(packet.residual_vectors[:, selected],
                          vectors[:, selected])
    residual, values, vectors = dense_residual_terms(H.matrix, selected, r1)
    assert_matches_dense(H, packet, residual, values, vectors)
    # E = {x : x_S = 0, Qx = 0}, the residual's eigenvalue-1 space
    return r1, int(np.sum(np.linalg.eigvalsh(residual) >= 1 - 1e-9))


def check_svd_against_dense(H, R):
    """The svd ablation, compress with no block: min(r1, rank H) top
    eigenvectors of H."""
    r1, rank = check_compress_against_dense(H, R, 0.0)
    assert rank == H.dims - len(H.basis)
    assert csi.compress(H, R, 0.0).residual_rank == min(r1, rank)


class TestDenseReference:
    """compress takes no m x m eigensolver; a dense eigh of the residual (of
    H itself for the svd ablation's empty block) is the reference."""

    @pytest.mark.parametrize("m, rows, duplicates, R, bf, beyond_E", [
        (6, 4, 0, 3.0, 0.0, True),     # r0 = 0, r1 = 3 > dim E = 2
        (8, 5, 0, 4.0, 0.5, True),     # r1 = 2 > dim E = 0
        (8, 3, 0, 2.0, 0.5, False),    # r1 = 1 <= dim E = 2
        (8, 5, 2, 4.0, 0.0, False),    # rank-deficient held rows: r1 = 4 <= 5
        (7, 0, 0, 3.0, 0.5, False),    # empty: H = I
        (6, 6, 0, 2.0, 0.5, True),     # rows span everything: H = 0
        (10, 9, 0, 5.0, 0.5, True),    # rank-1 H, block exhausts its rank
    ])
    def test_fixed_cases(self, monkeypatch, m, rows, duplicates, R, bf,
                         beyond_E):
        rng = np.random.default_rng(260 + m + rows)
        H = projector(held_rows(rng, m, rows, duplicates))
        factored = counted(monkeypatch, "orthonormal_row_basis", csi)
        r1, dim_e = check_compress_against_dense(H, R, bf)
        assert (r1 > dim_e) == beyond_E
        assert len(factored) == beyond_E  # only the eigensolver factors
        check_svd_against_dense(H, R)

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(1, 8), rows=st.integers(0, 9),
           duplicates=st.integers(0, 3), elements=st.integers(1, 64),
           bf=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_random_small_projectors(self, m, rows, duplicates, elements, bf,
                                     seed):
        rng = np.random.default_rng(seed)
        H = projector(held_rows(rng, m, rows, duplicates))
        R = min(elements, m * m) / m
        check_compress_against_dense(H, R, bf)
        check_svd_against_dense(H, R)

    def test_residual_frame_is_canonical(self):
        # the frame depends on the projector, not on the basis it came from
        rng = np.random.default_rng(270)
        Z = rng.normal(size=(5, 16))
        a = csi.compress(projector(Z), R=3.0)
        b = csi.compress(projector(rng.normal(size=(5, 5)) @ Z),
                         R=3.0)
        assert a.selected_dims == b.selected_dims
        assert a.residual_vectors == pytest.approx(b.residual_vectors, abs=1e-9)


def dense_precode(Z, packet, momentum):
    """The reference pre-code: Z (I + H^{1/2}) on the m x m reconstruction."""
    root = psd_sqrt(csi.reconstruct(packet))
    return Z @ (np.eye(packet.dims) + root if momentum else root)


def kernel(A):
    """precode returns features whose Gram is the pre-coded kernel W W^T."""
    return A @ A.T


def make_packet(m, selected, block, values, vectors):
    return csi.CsiPacket(dims=m, selected_dims=tuple(selected),
                         principal_block=csi.pack_lower_triangle(
                             np.reshape(block, (len(selected),) * 2)),
                         residual_values=np.asarray(values, dtype=float),
                         residual_vectors=np.asarray(vectors, dtype=float)
                         .reshape(len(values), m))


class TestPrecode:
    def test_identity_feedback_doubles_with_momentum(self):
        rng = np.random.default_rng(230)
        Z = rng.normal(size=(4, 5))
        packet = csi.exact_packet(csi.Projector(basis=np.zeros((0, 5))))
        assert kernel(csi.precode(Z, packet, momentum=True)) == pytest.approx(
            kernel(2 * Z))

    def test_zero_feedback_is_identity_with_momentum(self):
        rng = np.random.default_rng(231)
        Z = rng.normal(size=(4, 5))
        packet = csi.exact_packet(csi.Projector(basis=np.eye(5)))
        assert kernel(csi.precode(Z, packet, momentum=True)) == pytest.approx(
            kernel(Z))

    def test_exact_projector_recovers_conditional_determinant(self):
        rng = np.random.default_rng(232)
        for _ in range(5):
            Z = rng.normal(size=(10, 8))
            A, Y = [0, 1, 2], [6, 8, 9]
            H = projector(Z[Y])
            Zt = csi.precode(Z, csi.exact_packet(H), momentum=False)
            lhs = np.linalg.det(Zt[A] @ Zt[A].T)
            rhs = np.linalg.det(Z[A] @ H.matrix @ Z[A].T)
            assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_exact_feedback_selection_matches_conditional_greedy(self):
        # source-side greedy on pre-coded rows == centralized greedy seeded
        # with the held items, restricted to the source's rows
        rng = np.random.default_rng(233)
        for _ in range(5):
            Z_S = rng.normal(size=(12, 9))
            Z_Y = rng.normal(size=(4, 9))
            H = projector(Z_Y)
            Zt = csi.precode(Z_S, csi.exact_packet(H), momentum=False)
            local = dpp.greedy_map(Zt @ Zt.T, 4)
            stacked = np.vstack([Z_S, Z_Y])
            central = dpp.greedy_map(stacked @ stacked.T, 4,
                                     preselected=range(12, 16))
            assert local.indices == central.indices
            assert local.stepwise_logdets == pytest.approx(
                central.stepwise_logdets, abs=1e-8)


# Every packet shape a source can receive: each compression, and the
# proposed one with an empty block (the svd ablation) or an empty residual.
PACKETS = pytest.mark.parametrize("make", [
    lambda H: csi.compress(H, R=3.5, block_fraction=0.5),
    lambda H: csi.compress(H, R=3.5, block_fraction=0.0),  # r0 = 0
    lambda H: csi.compress(H, R=2.0, block_fraction=1.0),  # r1 = 0
    lambda H: csi.compress_random_sketch(H, R=3.0, rng=np.random.default_rng(1)),
    csi.exact_packet,
], ids=["compress", "r0=0", "r1=0", "random_sketch", "exact"])


class TestSubspacePrecode:
    """precode works in the packet's <= (r0 + r1)-dim subspace; the dense
    m x m reconstruction and its square root are the reference."""

    @pytest.mark.parametrize("momentum", [True, False])
    @PACKETS
    def test_matches_dense_reference(self, make, momentum):
        rng = np.random.default_rng(250)
        for m, held in ((16, 5), (33, 20)):
            H, _ = random_projector(rng, m, held)
            packet = make(H)
            Z = rng.normal(size=(25, m))
            assert kernel(csi.precode(Z, packet, momentum)) == pytest.approx(
                kernel(dense_precode(Z, packet, momentum)), abs=1e-6)

    @pytest.mark.parametrize("momentum", [True, False])
    @PACKETS
    def test_greedy_on_gram_form_picks_as_on_dense_features(self, make,
                                                           momentum):
        # A source's greedy reads only kernel rows, so the Gram form must
        # lead it to the picks the dense W would, held items included.
        rng = np.random.default_rng(253)
        for _ in range(3):
            H, _ = random_projector(rng, 24, 9)
            packet = make(H)
            Z = rng.normal(size=(60, 24))
            sent = [7, 41, 3]
            a = dpp.greedy_map_rows(csi.precode(Z, packet, momentum), 8,
                                    preselected=sent)
            b = dpp.greedy_map_rows(dense_precode(Z, packet, momentum), 8,
                                    preselected=sent)
            assert a.indices == b.indices
            assert a.stepwise_logdets == pytest.approx(b.stepwise_logdets,
                                                       abs=1e-6)

    @pytest.mark.parametrize("momentum", [True, False])
    def test_empty_packet_of_rank_zero_projector(self, momentum):
        H = csi.Projector(basis=np.eye(6))
        packet = csi.compress(H, R=2.0)
        assert packet.block_size == packet.residual_rank == 0
        Z = np.random.default_rng(251).normal(size=(5, 6))
        out = kernel(csi.precode(Z, packet, momentum))
        assert out == pytest.approx(kernel(Z) if momentum else np.zeros((5, 5)),
                                    abs=1e-12)
        assert out == pytest.approx(kernel(dense_precode(Z, packet, momentum)),
                                    abs=1e-6)

    @pytest.mark.parametrize("momentum", [True, False])
    def test_one_dimension(self, momentum):
        Z = np.array([[2.0], [-3.0]])
        for packet in (make_packet(1, [0], [[0.25]], [], []),
                       make_packet(1, [], [], [0.25], [[1.0]]),
                       make_packet(1, [0], [[0.25]], [0.5], [[1.0]])):
            assert kernel(csi.precode(Z, packet, momentum)) == pytest.approx(
                kernel(dense_precode(Z, packet, momentum)), abs=1e-12)

    @pytest.mark.parametrize("momentum", [True, False])
    def test_residual_vectors_heavy_on_selected_coordinates(self, momentum):
        rng = np.random.default_rng(252)
        m, selected = 10, [1, 4, 7]
        A = rng.normal(size=(3, 3))
        V = 1e-3 * rng.normal(size=(3, m))
        V[:, selected] = 5.0 * rng.normal(size=(3, 3))
        V[2, [i for i in range(m) if i not in selected]] = 0.0  # all on them
        packet = make_packet(m, selected, A @ A.T, [0.7, 0.2, 0.4], V)
        Z = rng.normal(size=(8, m))
        assert kernel(csi.precode(Z, packet, momentum)) == pytest.approx(
            kernel(dense_precode(Z, packet, momentum)), abs=1e-6)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_small_packets(self, data):
        m = data.draw(st.integers(1, 7), label="m")
        selected = sorted(data.draw(st.sets(st.integers(0, m - 1)), label="dims"))
        r1 = data.draw(st.integers(0, 3), label="r1")
        floats = st.floats(-1.0, 1.0, allow_nan=False)
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        A = rng.uniform(-1, 1, size=(len(selected), len(selected)))
        values = [data.draw(st.floats(0.05, 1.0)) for _ in range(r1)]
        V = np.array([[data.draw(floats) for _ in range(m)] for _ in range(r1)])
        packet = make_packet(m, selected, A @ A.T, values, V)
        Z = rng.uniform(-1, 1, size=(4, m))
        momentum = data.draw(st.booleans(), label="momentum")
        assert kernel(csi.precode(Z, packet, momentum)) == pytest.approx(
            kernel(dense_precode(Z, packet, momentum)), abs=1e-6)

    @PACKETS
    def test_a_built_packet_is_factored_block_by_block(self, monkeypatch,
                                                       make):
        # its residual vectors are exactly 0 on S, so M is block-diagonal
        H, _ = random_projector(np.random.default_rng(254), 33, 20)
        packet = make(H)
        Z = np.random.default_rng(255).normal(size=(25, 33))
        factored = counted(monkeypatch, "psd_eigh", csi)
        csi.precode(Z, packet)
        sizes = [args[0].shape[0] for args, _ in factored]
        assert max(sizes) <= max(packet.block_size, packet.residual_rank)
        assert sum(sizes) == packet.block_size + packet.residual_rank

    def test_negative_eigenvalue_raises_like_dense(self):
        V = np.zeros((1, 6))
        V[0, 3] = 1.0
        packet = make_packet(6, [0, 1], np.eye(2), [-0.5], V)
        Z = np.ones((2, 6))
        with pytest.raises(NotPsdError):
            dense_precode(Z, packet, True)
        with pytest.raises(NotPsdError):
            csi.precode(Z, packet)

    def test_rounding_negatives_are_clamped(self):
        V = np.zeros((1, 6))
        V[0, 3] = 1.0
        packet = make_packet(6, [0, 1], np.eye(2), [-1e-9], V)
        Z = np.ones((2, 6))
        assert kernel(csi.precode(Z, packet)) == pytest.approx(
            kernel(dense_precode(Z, packet, True)), abs=1e-6)

    def test_column_count_mismatch_rejected(self):
        packet = make_packet(4, [0], [[1.0]], [], [])
        with pytest.raises(InvalidInputError):
            csi.precode(np.ones((2, 5)), packet)


class TestComplementRoot:
    """From COMPLEMENT_MIN_DIMS dims up, a block's root comes from a pivoted
    Cholesky of I - B; the dense m x m reconstruction stays the reference."""

    MAKERS = {
        "compress": lambda H, R, rng: csi.compress(H, R),
        "random_sketch": lambda H, R, rng: csi.compress_random_sketch(H, R, rng),
        "exact": lambda H, R, rng: csi.exact_packet(H),
    }

    @staticmethod
    def features(rng, m):
        return rng.normal(size=(12, m)) / math.sqrt(m)  # a kernel of O(1)

    @settings(max_examples=40, deadline=None)
    @given(m=st.integers(256, 384), held=st.integers(0, 60),
           make=st.sampled_from(sorted(MAKERS)), momentum=st.booleans(),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_matches_dense_reference(self, m, held, make, momentum, seed,
                                     data):
        rng = np.random.default_rng(seed)
        # From the smallest budget whose random-sketch block reaches the
        # floor, to m / 2: a proper subset S, so I - B has eigenvalues
        # inside (0, 1), and a compress residual E's frame still holds, so
        # M stays block-diagonal.
        lo = csi.COMPLEMENT_MIN_DIMS
        R = data.draw(st.integers(-(-lo * (lo + 1) // (2 * m)), m // 2),
                      label="R")
        H, _ = random_projector(rng, m, held)
        packet = self.MAKERS[make](H, float(R), rng)
        assume(packet.block_size >= csi.COMPLEMENT_MIN_DIMS)
        # a block-diagonal M (the residual off S) roots its block apart
        assume(not packet.residual_vectors[:, packet.selected_dims].any())
        Z = self.features(rng, m)
        with mock.patch.object(csi, "_root_factor",
                               wraps=csi._root_factor) as solved:
            out = csi.precode(Z, packet, momentum)
        assert [len(args[0]) for args, _ in solved.call_args_list] == \
            [packet.residual_rank]  # the block took the complement route
        assert kernel(out) == pytest.approx(
            kernel(dense_precode(Z, packet, momentum)), abs=1e-6)

    @pytest.mark.parametrize("momentum", [True, False])
    @pytest.mark.parametrize("held", [80, 139])
    def test_a_complement_of_any_rank_takes_the_complement_route(
            self, monkeypatch, momentum, held):
        # 80 pivots is past r0 / 2, 139 all but one of r0
        rng = np.random.default_rng(256)
        r0 = 140
        B = csi.Projector(basis=csi.orthonormal_row_basis(
            rng.normal(size=(held, r0)))).matrix
        packet = make_packet(r0, range(r0), B, [], [])
        solved = counted(monkeypatch, "eigh", np.linalg)
        Z = self.features(rng, r0)
        out = csi.precode(Z, packet, momentum)
        assert sorted(len(args[0]) for args, _ in solved) == [0, held]
        assert kernel(out) == pytest.approx(
            kernel(dense_precode(Z, packet, momentum)), abs=1e-6)

    @pytest.mark.parametrize("momentum", [True, False])
    @pytest.mark.parametrize("case", ["eigenvalue above 1",
                                      "zero-diagonal complement, B_01 < 0",
                                      "zero-diagonal complement, B_01 > 0"])
    def test_other_blocks_take_the_eigensolver(self, monkeypatch, momentum,
                                               case):
        rng = np.random.default_rng(256)
        r0 = 140
        if case.startswith("zero-diagonal"):  # eigenvalues 1.5, 0.5, 1
            B = np.eye(r0)  # no pivot: the residual is all of I - B
            B[0, 1] = B[1, 0] = 0.5 if case.endswith("> 0") else -0.5
        else:  # I - B is indefinite
            B = csi.Projector(basis=csi.orthonormal_row_basis(
                rng.normal(size=(10, r0)))).matrix
            v = rng.normal(size=r0)
            B += 0.5 * np.outer(v, v) / (v @ v)
        packet = make_packet(r0, range(r0), B, [], [])
        solved = counted(monkeypatch, "psd_eigh", csi)
        Z = self.features(rng, r0)
        out = csi.precode(Z, packet, momentum)
        assert [len(args[0]) for args, _ in solved] == [r0, 0]
        assert kernel(out) == pytest.approx(
            kernel(dense_precode(Z, packet, momentum)), abs=1e-6)

    @pytest.mark.parametrize("momentum", [True, False])
    def test_an_eigenvalue_below_the_rounding_floor_raises(self, monkeypatch,
                                                          momentum):
        r0 = 140
        v = np.random.default_rng(257).normal(size=r0)
        B = np.eye(r0) - 2.0 * np.outer(v, v) / (v @ v)  # eigenvalue -1
        packet = make_packet(r0, range(r0), B, [], [])
        Z = np.ones((2, r0))
        with pytest.raises(NotPsdError):
            dense_precode(Z, packet, momentum)
        solved = counted(monkeypatch, "psd_eigh", csi)
        with pytest.raises(NotPsdError, match="below -1e-06"):
            csi.precode(Z, packet, momentum)
        assert solved == []  # raised on the complement route

    def test_a_paper_512_packet_runs_no_block_sized_eigh(self, monkeypatch):
        rng = np.random.default_rng(258)
        H, _ = random_projector(rng, 512, 54)
        packet = csi.compress(H, R=45.0)
        assert (packet.block_size, packet.residual_rank) == (151, 22)
        solved = counted(monkeypatch, "eigh", np.linalg)
        Z = self.features(rng, 512)
        out = csi.precode(Z, packet)
        sizes = sorted(args[0].shape[0] for args, _ in solved)
        assert sizes == [22, 54]  # the residual block; L L^T, t = q
        assert kernel(out) == pytest.approx(
            kernel(dense_precode(Z, packet, True)), abs=1e-6)


class TestBoundChain:
    def test_single_source_lower_bound(self):
        # joint feature-space volume dominates the averaged per-source volumes
        rng = np.random.default_rng(240)
        eps = 1e-6
        for _ in range(10):
            m, N = 6, 3
            parts = [rng.normal(size=(4, m)) for _ in range(N)]
            inner = sum(Z.T @ Z for Z in parts) / N
            joint = np.linalg.slogdet(inner / eps + np.eye(m))[1]
            lower = np.mean([np.linalg.slogdet(Z @ Z.T / eps + np.eye(4))[1]
                             for Z in parts])
            assert joint - lower >= -1e-8

    def test_conditional_bound_chain(self):
        rng = np.random.default_rng(241)
        eps = 1e-6
        for _ in range(10):
            m, N = 7, 3
            Z = rng.normal(size=(18, m))
            sources = [list(range(6 * i, 6 * i + 6)) for i in range(N)]
            final = [s[:4] for s in sources]          # full selections A_i
            sent = [s[:2] for s in sources]           # prefixes already uplinked
            held = set().union(*sent)
            real = np.linalg.slogdet(
                sum(Z[a].T @ Z[a] for a in final) / eps + np.eye(m))[1]
            cond, lower = [], []
            for i in range(N):
                Y = sorted(held - set(sent[i]))
                a = final[i]
                cond.append(np.linalg.slogdet(
                    (Z[a].T @ Z[a] + Z[Y].T @ Z[Y]) / eps + np.eye(m))[1])
                lower.append(np.linalg.slogdet(Z[a].T @ Z[a] / eps + np.eye(m))[1])
            assert real - np.mean(cond) >= -1e-8
            assert np.mean(cond) - np.mean(lower) >= -1e-8

    def test_minor_product_upper_bound(self):
        # squared minors of the pre-coded rows never exceed the raw volume
        # times the corresponding projector minor
        rng = np.random.default_rng(242)
        for m in (5, 6, 7):
            Z_A = rng.normal(size=(3, m))
            H, _ = random_projector(rng, m, 2)
            root = psd_sqrt(H.matrix)
            raw = np.linalg.det(Z_A @ Z_A.T)
            ZH = Z_A @ root
            for J in itertools.combinations(range(m), 3):
                lhs = np.linalg.det(ZH[:, list(J)]) ** 2
                rhs = raw * np.linalg.det(H.matrix[np.ix_(J, J)])
                assert lhs <= rhs + 1e-9
