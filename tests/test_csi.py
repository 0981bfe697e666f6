import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ddpp import csi, dpp, linalg, protocol
from ddpp.errors import InvalidInputError, NotPsdError


def embed_block(block, selected, m):
    """Place an r0 x r0 block at rows/columns ``selected`` of an m x m zero."""
    out = np.zeros((m, m))
    out[np.ix_(selected, selected)] = block
    return out


def random_projector(rng, m, held_rows):
    Z_Y = rng.normal(size=(held_rows, m))
    return csi.compute_projector(Z_Y, m), Z_Y


class TestComputeProjector:
    def test_empty_input_gives_identity(self):
        H = csi.compute_projector(np.zeros((0, 4)), 4)
        assert np.array_equal(H.matrix, np.eye(4))
        assert H.rank == 4

    def test_axis_aligned_row(self):
        H = csi.compute_projector(np.array([[1.0, 0.0, 0.0]]), 3)
        assert H.matrix == pytest.approx(np.diag([0.0, 1.0, 1.0]), abs=1e-12)
        assert H.rank == 2

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
            assert H.rank == 8 - rows

    def test_rank_deficient_held_rows(self):
        rng = np.random.default_rng(202)
        base = rng.normal(size=(2, 7))
        Z_Y = np.vstack([base, base[0] + base[1]])  # rank 2, 3 rows
        H = csi.compute_projector(Z_Y, 7)
        assert H.rank == 5

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            csi.compute_projector(np.ones((2, 3)), 4)

    def test_rows_spanning_every_dimension_give_exact_zero(self):
        # nothing is left uncovered: the packet must be empty, not a block
        # of rounding noise charged to the budget
        rng = np.random.default_rng(203)
        H = csi.compute_projector(rng.normal(size=(6, 6)), 6)
        assert H.rank == 0 and not H.matrix.any()
        for packet in (csi.compress(H, R=2.0), csi.compress_svd(H, R=2.0)):
            assert packet.element_count == 0
            ledger = protocol.BandwidthLedger(n_sources=1, dims=6, sparsity=2.0)
            ledger.record("downlink", 0, packet.element_count, 0, interval=2)
            assert ledger.snapshot()["downlink_elements"] == 0


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


class TestSelectDims:
    def test_identity_ties_break_low(self):
        H = csi.Projector(basis=np.zeros((0, 5)))
        assert csi.select_dims(H, 3) == [0, 1, 2]

    def test_zeroed_dimension_skipped(self):
        H = csi.Projector(basis=np.array([[1.0, 0.0, 0.0]]))
        assert csi.select_dims(H, 1) == [1]

    def test_rank_exhaustion_returns_fewer(self):
        rng = np.random.default_rng(210)
        H, _ = random_projector(rng, 6, 4)  # rank 2
        assert len(csi.select_dims(H, 5)) == 2

    def test_greedy_close_to_exhaustive_in_log_domain(self):
        rng = np.random.default_rng(211)
        H, _ = random_projector(rng, 9, 2)
        picked = csi.select_dims(H, 4)
        greedy_det = np.linalg.det(H.matrix[np.ix_(picked, picked)])
        best = max(np.linalg.det(H.matrix[np.ix_(J, J)])
                   for J in itertools.combinations(range(9), 4))
        assert math.log(greedy_det) >= math.log(best) - math.log(1 / (1 - 1 / math.e)) - 1e-9


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
        packet = csi.compress_svd(H, R=8)
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
    """compress equals the dense-eigh reference; returns (r1, dim E)."""
    packet = csi.compress(H, R, block_fraction)
    _, r1 = csi.split_budget(R, H.dims, block_fraction)
    selected = list(packet.selected_dims)
    residual, values, vectors = dense_residual_terms(H.matrix, selected, r1)
    assert_matches_dense(H, packet, residual, values, vectors)
    # E = {x : x_S = 0, Qx = 0}, the residual's eigenvalue-1 space
    return r1, int(np.sum(np.linalg.eigvalsh(residual) >= 1 - 1e-9))


def check_svd_against_dense(H, R):
    packet = csi.compress_svd(H, R)
    M = H.matrix
    _, values, vectors = dense_residual_terms(M, [], min(int(R), H.dims))
    assert_matches_dense(H, packet, M, values, vectors)
    assert packet.residual_rank == min(int(R), H.rank)


class TestDenseReference:
    """compress and compress_svd take no m x m eigensolver; a dense eigh of
    the residual (of H, for svd) is the reference."""

    @pytest.mark.parametrize("m, rows, duplicates, R, bf, beyond_E", [
        (6, 4, 0, 3.0, 0.0, True),     # r0 = 0, r1 = 3 > dim E = 2
        (8, 5, 0, 4.0, 0.5, True),     # r1 = 2 > dim E = 0
        (8, 3, 0, 2.0, 0.5, False),    # r1 = 1 <= dim E = 2
        (8, 5, 2, 4.0, 0.0, False),    # rank-deficient held rows: r1 = 4 <= 5
        (7, 0, 0, 3.0, 0.5, False),    # empty: H = I
        (6, 6, 0, 2.0, 0.5, True),     # rows span everything: H = 0
        (10, 9, 0, 5.0, 0.5, True),    # rank-1 H, block exhausts its rank
    ])
    def test_fixed_cases(self, m, rows, duplicates, R, bf, beyond_E):
        rng = np.random.default_rng(260 + m + rows)
        H = csi.compute_projector(held_rows(rng, m, rows, duplicates), m)
        r1, dim_e = check_compress_against_dense(H, R, bf)
        assert (r1 > dim_e) == beyond_E
        check_svd_against_dense(H, R)

    @settings(max_examples=200, deadline=None)
    @given(m=st.integers(1, 8), rows=st.integers(0, 9),
           duplicates=st.integers(0, 3), elements=st.integers(1, 64),
           bf=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_random_small_projectors(self, m, rows, duplicates, elements, bf,
                                     seed):
        rng = np.random.default_rng(seed)
        H = csi.compute_projector(held_rows(rng, m, rows, duplicates), m)
        R = min(elements, m * m) / m
        check_compress_against_dense(H, R, bf)
        check_svd_against_dense(H, R)

    def test_residual_frame_is_canonical(self):
        # the frame depends on the projector, not on the basis it came from
        rng = np.random.default_rng(270)
        Z = rng.normal(size=(5, 16))
        a = csi.compress(csi.compute_projector(Z, 16), R=3.0)
        b = csi.compress(csi.compute_projector(rng.normal(size=(5, 5)) @ Z, 16),
                         R=3.0)
        assert a.selected_dims == b.selected_dims
        assert a.residual_vectors == pytest.approx(b.residual_vectors, abs=1e-9)


def dense_precode(Z, packet, momentum):
    """The reference pre-code: Z (I + H^{1/2}) on the m x m reconstruction."""
    root = linalg.psd_sqrt(csi.reconstruct(packet))
    return Z @ (np.eye(packet.dims) + root if momentum else root)


def make_packet(m, selected, block, values, vectors):
    return csi.CsiPacket(dims=m, selected_dims=tuple(selected),
                         principal_block=csi.pack_lower_triangle(np.asarray(block)),
                         residual_values=np.asarray(values, dtype=float),
                         residual_vectors=np.asarray(vectors, dtype=float)
                         .reshape(len(values), m))


class TestPrecode:
    def test_identity_feedback_doubles_with_momentum(self):
        rng = np.random.default_rng(230)
        Z = rng.normal(size=(4, 5))
        packet = csi.exact_packet(csi.Projector(basis=np.zeros((0, 5))))
        assert csi.precode(Z, packet, momentum=True) == pytest.approx(2 * Z)

    def test_zero_feedback_is_identity_with_momentum(self):
        rng = np.random.default_rng(231)
        Z = rng.normal(size=(4, 5))
        packet = csi.exact_packet(csi.Projector(basis=np.eye(5)))
        assert csi.precode(Z, packet, momentum=True) == pytest.approx(Z)

    def test_exact_projector_recovers_conditional_determinant(self):
        rng = np.random.default_rng(232)
        for _ in range(5):
            Z = rng.normal(size=(10, 8))
            A, Y = [0, 1, 2], [6, 8, 9]
            H = csi.compute_projector(Z[Y], 8)
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
            H = csi.compute_projector(Z_Y, 9)
            Zt = csi.precode(Z_S, csi.exact_packet(H), momentum=False)
            local = dpp.greedy_map(linalg.gram(Zt), 4)
            stacked = np.vstack([Z_S, Z_Y])
            central = dpp.greedy_map(linalg.gram(stacked), 4,
                                     preselected=range(12, 16))
            assert local.indices == central.indices
            assert local.stepwise_logdets == pytest.approx(
                central.stepwise_logdets, abs=1e-8)


class TestSubspacePrecode:
    """precode works in the packet's <= (r0 + r1)-dim subspace; the dense
    m x m reconstruction and its square root are the reference."""

    @pytest.mark.parametrize("momentum", [True, False])
    @pytest.mark.parametrize("make", [
        lambda H: csi.compress(H, R=3.5, block_fraction=0.5),
        lambda H: csi.compress(H, R=3.5, block_fraction=0.0),  # r0 = 0
        lambda H: csi.compress(H, R=2.0, block_fraction=1.0),  # r1 = 0
        lambda H: csi.compress_svd(H, R=3),
        lambda H: csi.compress_random_sketch(H, R=3.0, rng=np.random.default_rng(1)),
        csi.exact_packet,
    ], ids=["compress", "r0=0", "r1=0", "svd", "random_sketch", "exact"])
    def test_matches_dense_reference(self, make, momentum):
        rng = np.random.default_rng(250)
        for m, held in ((16, 5), (33, 20)):
            H, _ = random_projector(rng, m, held)
            packet = make(H)
            Z = rng.normal(size=(25, m))
            assert csi.precode(Z, packet, momentum) == pytest.approx(
                dense_precode(Z, packet, momentum), abs=1e-6)

    @pytest.mark.parametrize("momentum", [True, False])
    def test_empty_packet_of_rank_zero_projector(self, momentum):
        H = csi.Projector(basis=np.eye(6))
        packet = csi.compress(H, R=2.0)
        assert packet.block_size == packet.residual_rank == 0
        Z = np.random.default_rng(251).normal(size=(5, 6))
        out = csi.precode(Z, packet, momentum)
        assert out == pytest.approx(Z if momentum else np.zeros_like(Z), abs=1e-12)
        assert out == pytest.approx(dense_precode(Z, packet, momentum), abs=1e-6)

    @pytest.mark.parametrize("momentum", [True, False])
    def test_one_dimension(self, momentum):
        Z = np.array([[2.0], [-3.0]])
        for packet in (make_packet(1, [0], [[0.25]], [], []),
                       make_packet(1, [], [], [0.25], [[1.0]]),
                       make_packet(1, [0], [[0.25]], [0.5], [[1.0]])):
            assert csi.precode(Z, packet, momentum) == pytest.approx(
                dense_precode(Z, packet, momentum), abs=1e-12)

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
        assert csi.precode(Z, packet, momentum) == pytest.approx(
            dense_precode(Z, packet, momentum), abs=1e-6)

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
        assert csi.precode(Z, packet, momentum) == pytest.approx(
            dense_precode(Z, packet, momentum), abs=1e-6)

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
        assert csi.precode(Z, packet) == pytest.approx(
            dense_precode(Z, packet, True), abs=1e-6)

    def test_column_count_mismatch_rejected(self):
        packet = make_packet(4, [0], [[1.0]], [], [])
        with pytest.raises(InvalidInputError):
            csi.precode(np.ones((2, 5)), packet)


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
            root = linalg.psd_sqrt(H.matrix)
            raw = np.linalg.det(Z_A @ Z_A.T)
            ZH = Z_A @ root
            for J in itertools.combinations(range(m), 3):
                lhs = np.linalg.det(ZH[:, list(J)]) ** 2
                rhs = raw * np.linalg.det(H.matrix[np.ix_(J, J)])
                assert lhs <= rhs + 1e-9
