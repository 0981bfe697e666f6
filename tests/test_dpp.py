import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (counted, kernel_row_projector_greedy, projector,
                      stepwise_exhaustive_greedy)
from ddpp import csi, data, dpp, linalg
from ddpp.errors import InvalidInputError, TooLargeError


def random_psd(rng, n, rank=None):
    Z = rng.normal(size=(n, rank or n))
    return Z @ Z.T


class TestGreedyMap:
    def test_diagonal_picks_largest_first(self):
        res = dpp.greedy_map(np.diag([3.0, 2.0, 1.0]), 2)
        assert res.indices == [0, 1]
        assert res.stepwise_logdets == pytest.approx(
            [math.log(3.0), math.log(3.0) + math.log(2.0)], abs=1e-12)

    def test_duplicate_row_degeneracy(self):
        Z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        res = dpp.greedy_map(Z @ Z.T, 2)
        assert res.indices == [0, 2]

    def test_matches_stepwise_exhaustive_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(10):
            L = random_psd(rng, 10)
            res = dpp.greedy_map(L, 3)
            picks, logdets = stepwise_exhaustive_greedy(L, 3)
            assert res.indices == picks
            assert res.stepwise_logdets == pytest.approx(logdets, abs=1e-8)

    def test_gains_are_monotone_nonincreasing(self):
        rng = np.random.default_rng(102)
        L = random_psd(rng, 12)
        res = dpp.greedy_map(L, 8)
        gains = np.diff([0.0] + list(res.stepwise_logdets))
        assert all(a >= b - 1e-9 for a, b in zip(gains, gains[1:]))

    def test_rank_exhaustion_flag(self):
        Z = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        res = dpp.greedy_map(Z @ Z.T, 3)
        assert len(res.indices) == 2

    def test_preselected_conditions_but_is_not_reported(self):
        rng = np.random.default_rng(103)
        L = random_psd(rng, 9)
        res = dpp.greedy_map(L, 3, preselected=[4, 7])
        assert 4 not in res.indices and 7 not in res.indices
        picks, _ = stepwise_exhaustive_greedy(L, 3, preselected=[4, 7])
        assert res.indices == picks

    def test_continuation_matches_single_run(self):
        rng = np.random.default_rng(104)
        L = random_psd(rng, 10)
        full = dpp.greedy_map(L, 6)
        head = full.indices[:3]
        tail = dpp.greedy_map(L, 3, preselected=head)
        assert head + tail.indices == full.indices

    def test_conditioning_equals_schur_complement_selection(self):
        rng = np.random.default_rng(105)
        for _ in range(5):
            L = random_psd(rng, 8)
            P = [0, 5]
            cond = dpp.greedy_map(L, 3, preselected=P)
            rest = [i for i in range(8) if i not in P]
            Lpp = L[np.ix_(P, P)]
            Lrp = L[np.ix_(rest, P)]
            schur = L[np.ix_(rest, rest)] - Lrp @ np.linalg.solve(Lpp, Lrp.T)
            sub = dpp.greedy_map(linalg.symmetrize(schur), 3)
            assert [rest[i] for i in sub.indices] == cond.indices
            assert sub.stepwise_logdets == pytest.approx(cond.stepwise_logdets, abs=1e-8)

    def test_full_rank_total_matches_subset_logdet(self):
        rng = np.random.default_rng(106)
        Z = rng.normal(size=(9, 9))
        res = dpp.greedy_map(Z @ Z.T, 9)
        assert res.stepwise_logdets[-1] == pytest.approx(
            dpp.subset_logdet(Z, res.indices), abs=1e-8)

    def test_rows_variant_identical_to_gram_variant(self):
        # Sources select with greedy_map_rows; it must pick what the
        # materialized kernel would, in the shapes sources actually run.
        rng = np.random.default_rng(107)
        bench = data.make_benchmark_dataset(seed=0, n_sources=2, dims=64,
                                            total_select=40)
        cases = [  # (Z, k, held, rank floor hit)
            (rng.normal(size=(30, 6)), 5, [], False),
            (rng.normal(size=(30, 12)), 5, [3, 17, 8, 25], False),  # later interval
            (rng.normal(size=(30, 3)) @ rng.normal(size=(3, 6)), 5, [], True),
            (bench.source_rows(1), 40, [], False),
        ]
        for Z, k, held, exhausted in cases:
            a = dpp.greedy_map(Z @ Z.T, k, preselected=held)
            b = dpp.greedy_map_rows(Z, k, preselected=held)
            assert a.indices == b.indices
            assert (len(a.indices) < k) == exhausted
            assert a.stepwise_logdets == pytest.approx(b.stepwise_logdets, abs=1e-9)

    def test_held_item_at_rank_floor_adds_no_row(self):
        # Held item 5 repeats held item 0's direction, so its gain sits at
        # the rank floor when it is consumed: the held rows come in one
        # batch, and the picks are those made as if 5 were not held.
        rng = np.random.default_rng(112)
        Z = rng.normal(size=(30, 8))
        Z[5] = -2.0 * Z[0]
        held = [0, 5, 12]
        a = dpp.greedy_map_rows(Z, 5, preselected=held)
        b = dpp.greedy_map(Z @ Z.T, 5, preselected=held)
        c = dpp.greedy_map(Z @ Z.T, 5, preselected=[0, 12])
        assert a.indices == b.indices == c.indices and len(a.indices) == 5
        assert a.stepwise_logdets == pytest.approx(b.stepwise_logdets, abs=1e-9)
        assert a.stepwise_logdets == pytest.approx(c.stepwise_logdets, abs=1e-9)

    @pytest.mark.parametrize("n, q", [(9, 0), (9, 4), (12, 11)])
    def test_projector_variant_matches_dense_and_returns_a_frame(self, n, q):
        rng = np.random.default_rng(109)
        B = linalg.orthonormal_row_basis(rng.normal(size=(q, n)))
        P = np.eye(n) - B.T @ B
        a = dpp.greedy_map(P, n)
        b = dpp.greedy_map_projector(B, n)
        assert b.indices == a.indices and len(b.indices) == n - q
        F = b.frame
        assert F @ F.T == pytest.approx(np.eye(n - q), abs=1e-12)
        assert F @ P == pytest.approx(F, abs=1e-12)  # in P's range
        # Gram-Schmidt of P's picked columns, in pick order
        cols = P[:, b.indices]
        assert np.tril(F @ cols, -1) == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_projector_variant_matches_the_kernel_row_greedy(self, data):
        # k up to and past rank(H) = m - q, the frame from any row on
        m = data.draw(st.integers(1, 16), label="m")
        q = data.draw(st.integers(0, m), label="q")
        k = data.draw(st.integers(0, m + 3), label="k")
        first = data.draw(st.integers(0, k), label="frame_from")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        B = np.linalg.qr(rng.normal(size=(m, q)))[0].T
        picks, frame = kernel_row_projector_greedy(B, k)
        res = dpp.greedy_map_projector(B, k, frame_from=first)
        assert res.indices == picks and len(picks) == min(k, m - q)
        assert res.frame.shape == frame[first:].shape
        np.testing.assert_allclose(res.frame, frame[first:], rtol=0, atol=1e-12)
        np.testing.assert_allclose(res.frame @ res.frame.T,
                                   np.eye(len(res.frame)), rtol=0, atol=1e-12)

    def test_projector_variant_picks_nothing_from_rounding_noise(self):
        # I - B^T B is zero up to rounding when B's rows span everything;
        # gains are measured against the projector's norm, not that noise
        B = linalg.orthonormal_row_basis(
            np.random.default_rng(110).normal(size=(6, 6)))
        res = dpp.greedy_map_projector(B, 3)
        assert res.indices == []
        assert res.frame.shape == (0, 6)

    def test_zero_kernel_exhausts_immediately(self):
        res = dpp.greedy_map(np.zeros((4, 4)), 2)
        assert res.indices == []

    @pytest.mark.parametrize("rank, k, rows", [(5, 12, 5), (5, 3, 3),
                                               (0, 4, 0)])
    def test_pivoted_cholesky_is_the_greedy_factor(self, rank, k, rows):
        # the greedy's own picks and floor; L - F^T F within the floor once
        # the rank is spanned, and a k-pivot cap otherwise
        L = random_psd(np.random.default_rng(111), 12, rank=rank) \
            if rank else np.zeros((12, 12))
        F, floor = dpp.pivoted_cholesky(L, k)
        assert F.shape == (rows, 12)
        assert floor == dpp.EARLY_STOP_REL * max(np.diag(L).max(), 0.0)
        assert (np.abs(L - F.T @ F).max() <= floor) == (rows == rank)
        assert dpp.greedy_map(L, k).frame is None  # kept only when asked

    @pytest.mark.parametrize("rank", [None, 4])
    def test_prefix_stable(self, rank):
        # ddpp's first-interval picks are a prefix of greedi's per-source run.
        rng = np.random.default_rng(108)
        L = random_psd(rng, 12, rank=rank)
        K = 9
        full = dpp.greedy_map(L, K)
        assert (len(full.indices) < K) == (rank is not None)
        for k in range(K):
            short = dpp.greedy_map(L, k)
            assert short.indices == full.indices[:k]
            assert short.stepwise_logdets == full.stepwise_logdets[:k]

    @pytest.mark.parametrize("shape, rank, K", [
        ((40, 12), None, 12),   # random rows, K up to the width
        ((40, 12), 5, 9),       # rank-deficient rows: the floor stops it at 5
        ((30, 6), None, 10),    # K past the width's rank floor
    ])
    def test_rows_prefix_is_the_shorter_run_bit_for_bit(self, shape, rank, K):
        # a pick does not depend on how many picks follow it
        rng = np.random.default_rng(sum(shape) + K)
        Z = rng.normal(size=shape)
        if rank is not None:
            Z = rng.normal(size=(shape[0], rank)) @ rng.normal(size=(rank, shape[1]))
        full = dpp.greedy_map_rows(Z, K)
        floor = min(rank or shape[1], shape[1])
        assert len(full.indices) == min(K, floor)
        for k in range(K + 1):
            short = dpp.greedy_map_rows(Z, k)
            assert short.indices == full.indices[:k]
            assert short.stepwise_logdets == full.stepwise_logdets[:k]


def eager_rows(Z, k, preselected=()):
    """The streaming greedy on Z Z^T, whatever Z's shape."""
    diag = np.einsum("ij,ij->i", Z, Z)
    return dpp._greedy(diag, lambda idx: Z[idx] @ Z.T, k, preselected,
                       rank=Z.shape[1])


def assert_same_run(lazy, eager):
    assert lazy.indices == eager.indices
    np.testing.assert_allclose(lazy.stepwise_logdets, eager.stepwise_logdets,
                               rtol=1e-9, atol=1e-9)


def assert_same_above_noise(a, b, scale):
    """Same picks and gains until either run's gain falls to 1e-6 * scale.

    Past a pick that small, the gains left may be rounding noise: once
    ill-conditioned held items span a rank below Z's width, noise can clear
    the floor, and whether and what to pick is rounding's call.
    """
    gains = [np.exp(np.diff(r.stepwise_logdets, prepend=0.0)) for r in (a, b)]
    cut = min(int(np.argmax(np.append(g, 0.0) <= 1e-6 * scale))
              for g in gains)
    assert a.indices[:cut] == b.indices[:cut]
    np.testing.assert_allclose(gains[0][:cut], gains[1][:cut], rtol=0,
                               atol=1e-9 * scale)


class TestLazyGreedy:
    """The lazy search, entered directly so that small shapes reach it."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_agrees_with_the_eager_greedy(self, data):
        # Full-rank rows: on a kernel of rank below Z's width, the pick
        # after the rank is spanned is rounding noise against the floor.
        # A held row may repeat an earlier held row's direction (it is held,
        # so never picked), and the held list may outrun Z's width.
        n = data.draw(st.integers(1, 40), label="n")
        m = data.draw(st.integers(1, 12), label="m")
        k = data.draw(st.integers(0, 15), label="k")
        held = data.draw(st.lists(st.integers(0, n - 1), unique=True,
                                  max_size=min(n, 16)), label="held")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        Z = rng.normal(size=(n, m))
        spanning = held
        if len(held) >= 2 and data.draw(st.booleans(), label="repeat"):
            a, b = sorted(data.draw(st.lists(
                st.integers(0, len(held) - 1), min_size=2, max_size=2,
                unique=True), label="earlier, later"))
            scale = data.draw(st.sampled_from([-2.0, 0.5, 3.0]), label="scale")
            Z[held[b]] = scale * Z[held[a]]
            spanning = held[:b] + held[b + 1:]
        res = dpp._lazy_greedy(Z, k, held)
        assert_same_run(res, eager_rows(Z, k, held))
        assert_same_run(res, eager_rows(Z, k, spanning))  # repeat: no row
        assert not set(res.indices) & set(held)
        if len(spanning) >= m:  # the frame fills inside the held loop
            assert res.indices == [] and res.stepwise_logdets == []

    def test_a_stale_lower_index_tied_on_its_bound_is_refreshed(self):
        # After row 0 (frame e0), row 2's gain falls from 29 to exactly 25,
        # the stale bound of row 1, whose own gain is only 16.  Refreshing
        # only bounds above the best gain would hand the tie to row 1.
        Z = np.array([[10.0, 0.0, 0.0], [3.0, 4.0, 0.0], [2.0, 5.0, 0.0],
                      [0.0, 0.0, 1.0]])
        res = dpp._lazy_greedy(Z, 3)
        assert res.indices == [0, 2, 3]
        assert res.stepwise_logdets == pytest.approx(
            [math.log(100.0), math.log(2500.0), math.log(2500.0)], abs=1e-12)
        assert_same_run(res, eager_rows(Z, 3))

    def test_held_item_at_rank_floor_adds_no_row(self):
        rng = np.random.default_rng(112)
        Z = rng.normal(size=(30, 8))
        Z[5] = -2.0 * Z[0]
        res = dpp._lazy_greedy(Z, 5, [0, 5, 12])
        assert_same_run(res, eager_rows(Z, 5, [0, 12]))
        assert len(res.indices) == 5 and 5 not in res.indices

    def test_held_items_past_the_width_fill_the_frame_and_leave_no_pick(self):
        # Ten held rows in 8 dimensions, one repeating an earlier direction:
        # the ninth distinct one fills the frame inside the held loop.
        rng = np.random.default_rng(113)
        Z = rng.normal(size=(30, 8))
        Z[7] = 0.5 * Z[3]
        held = [3, 7, 0, 11, 19, 2, 25, 14, 9, 28]
        res = dpp._lazy_greedy(Z, 4, held)
        assert res.indices == [] and res.stepwise_logdets == []
        assert_same_run(res, eager_rows(Z, 4, held))
        # one row short of the width: the one pick is not a held item
        res = dpp._lazy_greedy(Z, 4, held[:8])
        assert len(res.indices) == 1 and res.indices[0] not in held
        assert_same_run(res, eager_rows(Z, 4, held[:8]))

    @pytest.mark.parametrize("n, m, rank", [(10, 25, 10), (40, 6, 6),
                                            (40, 12, 4)])
    def test_k_above_the_rank_stops_at_the_rank(self, n, m, rank):
        rng = np.random.default_rng(n + m + rank)
        Z = rng.normal(size=(n, rank)) @ rng.normal(size=(rank, m))
        res = dpp._lazy_greedy(Z, rank + 3)
        assert len(res.indices) == rank
        assert_same_run(res, eager_rows(Z, rank + 3))

    def test_picks_do_not_depend_on_how_many_follow(self):
        Z = np.random.default_rng(114).normal(size=(60, 16))
        full = dpp._lazy_greedy(Z, 16, [4, 9])
        for k in range(17):
            short = dpp._lazy_greedy(Z, k, [4, 9])
            assert short.indices == full.indices[:k]
            assert short.stepwise_logdets == full.stepwise_logdets[:k]

    # lazy from 2^17 = 131 072 entries of Z up, whether n <= m or not
    @pytest.mark.parametrize("shape, path", [((345, 512), "_lazy_greedy"),
                                             ((344, 64), "_greedy"),
                                             ((344, 512), "_lazy_greedy")])
    def test_the_public_entry_takes_the_path_its_shape_calls_for(
            self, monkeypatch, shape, path):
        Z = np.random.default_rng(115).normal(size=shape)
        held = [3, 50, 7]
        want = dpp.greedy_map(Z @ Z.T, 40, held)
        entered = {name: counted(monkeypatch, name, dpp)
                   for name in ("greedy_map", "_lazy_greedy", "_greedy")}
        assert_same_run(dpp.greedy_map_rows(Z, 40, held), want)
        taken = {name: len(calls) for name, calls in entered.items()}
        assert taken == {name: int(name == path) for name in taken}

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_the_gram_path_agrees_with_the_lazy_greedy(self, data):
        # greedy_map on Z Z^T, as a source's shared Gram runs it, on n <= m
        # continuous rows of inner rank r, full (r = n) or not.  The gains,
        # not their logs, are compared: the log of a pivot far below the
        # largest diagonal magnifies its rounding.
        n = data.draw(st.integers(1, 24), label="n")
        m = data.draw(st.integers(n, 30), label="m")
        r = data.draw(st.integers(1, n), label="r")
        held = data.draw(st.lists(st.integers(0, n - 1), unique=True,
                                  max_size=min(n, 6)), label="held")
        k = data.draw(st.integers(0, 15), label="k")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        Z = rng.normal(size=(n, r)) @ rng.normal(size=(r, m))
        assert_same_above_noise(dpp.greedy_map(Z @ Z.T, k, held),
                                dpp._lazy_greedy(Z, k, held),
                                float(np.max(np.einsum("ij,ij->i", Z, Z))))


class TestBruteForceMap:
    def test_diagonal(self):
        res = dpp.brute_force_map(np.diag(np.sqrt([3.0, 2.0, 1.0])), 2)
        assert res.indices == [0, 1]
        assert res.stepwise_logdets[-1] == pytest.approx(math.log(6.0), abs=1e-12)

    def test_k_equals_n_returns_everything(self):
        rng = np.random.default_rng(110)
        Z = rng.normal(size=(5, 5))
        res = dpp.brute_force_map(Z, 5)
        assert res.indices == list(range(5))
        assert res.stepwise_logdets[-1] == pytest.approx(
            np.linalg.slogdet(Z @ Z.T)[1], abs=1e-9)

    def test_exact_dominates_greedy(self):
        rng = np.random.default_rng(111)
        for _ in range(10):
            Z = rng.normal(size=(8, 8))
            exact = dpp.brute_force_map(Z, 3)
            greedy = dpp.greedy_map(Z @ Z.T, 3)
            assert exact.stepwise_logdets[-1] >= greedy.stepwise_logdets[-1] - 1e-9

    def test_picks_as_an_enumeration_of_the_kernel(self):
        # each subset's kernel comes from its own rows, not from Z Z^T
        Z = np.random.default_rng(112).normal(size=(9, 4))
        L = Z @ Z.T
        best = max(itertools.combinations(range(9), 3),
                   key=lambda J: np.linalg.det(L[np.ix_(J, J)]))
        assert dpp.brute_force_map(Z, 3).indices == list(best)

    def test_combinatorial_guard(self):
        with pytest.raises(TooLargeError):
            dpp.brute_force_map(np.eye(60), 15)

    def test_rejects_bad_k(self):
        with pytest.raises(InvalidInputError):
            dpp.brute_force_map(np.eye(3), 0)


class TestSubsetLogdet:
    def test_orthonormal_rows(self):
        Z = np.eye(5)
        assert dpp.subset_logdet(Z, [0, 2, 4]) == pytest.approx(0.0, abs=1e-12)

    def test_single_row_norm(self):
        Z = np.array([[2.0, 0.0]])
        assert dpp.subset_logdet(Z, [0]) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_cross_module_consistency(self):
        rng = np.random.default_rng(120)
        Z = rng.normal(size=(6, 4))
        A = [1, 3, 5]
        expected = linalg.logdet_psd(Z[A] @ Z[A].T)
        assert dpp.subset_logdet(Z, A) == pytest.approx(expected, abs=1e-10)

    def test_singular_sentinel(self):
        Z = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert dpp.subset_logdet(Z, [0, 1]) == -np.inf

    def test_oversized_subset_is_singular(self):
        Z = np.eye(2)
        assert dpp.subset_logdet(np.vstack([Z, Z, Z]), [0, 1, 2]) == -np.inf

    def test_rejects_duplicates_and_empty(self):
        Z = np.eye(3)
        with pytest.raises(InvalidInputError):
            dpp.subset_logdet(Z, [0, 0])
        with pytest.raises(InvalidInputError):
            dpp.subset_logdet(Z, [])


class TestDeterminantIdentities:
    def test_schur_factorization_of_bordered_gram(self):
        # det over a union splits into the held block times the projected block
        rng = np.random.default_rng(130)
        for _ in range(10):
            Z = rng.normal(size=(9, 7))
            A, Y = [0, 2, 4], [5, 7, 8]
            H = projector(Z[Y]).matrix
            lhs = np.linalg.det(Z[A + Y] @ Z[A + Y].T)
            rhs = np.linalg.det(Z[Y] @ Z[Y].T) * np.linalg.det(Z[A] @ H @ Z[A].T)
            assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_cauchy_binet_expansion(self):
        rng = np.random.default_rng(131)
        for m in (5, 6, 8):
            Z = rng.normal(size=(3, m))
            total = sum(np.linalg.det(Z[:, list(J)]) ** 2
                        for J in itertools.combinations(range(m), 3))
            assert np.linalg.det(Z @ Z.T) == pytest.approx(total, rel=1e-8)
