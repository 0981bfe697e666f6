import math

import numpy as np
import pytest
import scipy.stats

from ddpp import dpp, metrics
from ddpp.errors import (DegenerateInputError, InvalidInputError,
                         ScalingViolationError)


def orthogonal_rows_with_log_norms(log_norms):
    """Rows aligned to distinct axes; subset log-volume = sum of 2*log norms."""
    Z = np.zeros((len(log_norms), len(log_norms)))
    for i, ln in enumerate(log_norms):
        Z[i, i] = math.exp(ln)
    return Z


def rde(Z, gt, sel):
    return metrics.rde(dpp.subset_logdet(Z, gt), dpp.subset_logdet(Z, sel))


class TestRde:
    def test_zero_when_selection_equals_ground_truth(self):
        Z = orthogonal_rows_with_log_norms([1.0, 2.0, 3.0])
        assert rde(Z, [0, 1, 2], [2, 1, 0]) == 0.0

    def test_ratio_arithmetic(self):
        # gt volume = 10 nats, selection = 9 nats -> error 0.1
        Z = orthogonal_rows_with_log_norms([2.5, 2.5, 2.5, 2.0])
        assert dpp.subset_logdet(Z, [0, 1]) == pytest.approx(10.0, abs=1e-9)
        assert dpp.subset_logdet(Z, [2, 3]) == pytest.approx(9.0, abs=1e-9)
        assert rde(Z, [0, 1], [2, 3]) == pytest.approx(0.1, abs=1e-9)

    def test_clamped_to_unit_interval(self):
        Z = np.vstack([orthogonal_rows_with_log_norms([3.0, 3.0]),
                       [[math.exp(3.0), 0.0]]])  # row 2 duplicates row 0
        assert rde(Z, [0, 1], [0, 2]) == 1.0  # singular selection

    def test_better_than_ground_truth_clamps_to_zero(self):
        Z = orthogonal_rows_with_log_norms([1.0, 2.0, 3.0])
        assert rde(Z, [0, 1], [1, 2]) == 0.0

    def test_scaling_violation(self):
        Z = 0.1 * np.eye(3)
        with pytest.raises(ScalingViolationError):
            rde(Z, [0, 1], [1, 2])

    def test_antitone_in_selection_quality(self):
        Z = orthogonal_rows_with_log_norms([3.0, 2.5, 2.0, 1.5, 1.0])
        gt = [0, 1]
        worse = [rde(Z, gt, sel)
                 for sel in ([0, 1], [1, 2], [2, 3], [3, 4])]
        assert worse == sorted(worse)


class TestWelchTtest:
    def test_identical_samples(self):
        xs = [1.0, 2.0, 3.0]
        t, p = metrics.welch_ttest(xs, list(xs))
        assert t == 0.0 and p == pytest.approx(1.0)

    def test_separated_samples(self):
        xs = [0.0, 0.001, -0.001, 0.0]
        ys = [1.0, 1.001, 0.999, 1.0]
        _, p = metrics.welch_ttest(xs, ys)
        assert p < 1e-6

    def test_textbook_vectors_match_reference_implementation(self):
        xs = [27.5, 21, 19, 23.6, 17, 17.9, 16.9, 20.1, 21.9, 22.6, 23.1,
              19.6, 19, 21.7, 21.4]
        ys = [27.1, 22, 20.8, 23.4, 23.4, 23.5, 25.8, 22, 24.8, 20.2, 21.9,
              22.1, 22.9, 30.5]
        t, p = metrics.welch_ttest(xs, ys)
        # verified against scipy.stats.ttest_ind(equal_var=False)
        assert t == pytest.approx(-2.7077777791, abs=1e-9)
        assert p == pytest.approx(0.0116161920, abs=1e-9)

    def test_matches_scipy_on_random_inputs(self):
        rng = np.random.default_rng(500)
        for _ in range(20):
            xs = rng.normal(size=rng.integers(5, 30))
            ys = 0.3 + rng.normal(size=rng.integers(5, 30))
            t, p = metrics.welch_ttest(xs, ys)
            ref = scipy.stats.ttest_ind(xs, ys, equal_var=False)
            assert t == pytest.approx(ref.statistic, abs=1e-10)
            assert p == pytest.approx(ref.pvalue, abs=1e-10)

    def test_swap_negates_t_keeps_p(self):
        rng = np.random.default_rng(501)
        xs, ys = rng.normal(size=10), rng.normal(size=12)
        t1, p1 = metrics.welch_ttest(xs, ys)
        t2, p2 = metrics.welch_ttest(ys, xs)
        assert t1 == pytest.approx(-t2)
        assert p1 == pytest.approx(p2)

    def test_degenerate_variance(self):
        with pytest.raises(DegenerateInputError):
            metrics.welch_ttest([1.0, 1.0, 1.0], [2.0, 2.0])

    def test_needs_two_observations(self):
        with pytest.raises(InvalidInputError):
            metrics.welch_ttest([1.0], [1.0, 2.0])


class TestKnnEval:
    def test_exact_match_with_k1(self):
        train = np.array([[0.0, 0.0], [5.0, 5.0]])
        labels = np.array([3, 9])
        acc, f1 = metrics.knn_eval(train, labels, train[[1]], labels[[1]], 1)
        assert acc == 1.0 and f1 == 1.0

    def test_separated_blobs(self):
        rng = np.random.default_rng(510)
        train = np.vstack([rng.normal(size=(40, 4)) - 6,
                           rng.normal(size=(40, 4)) + 6])
        train_y = np.array([0] * 40 + [1] * 40)
        test = np.vstack([rng.normal(size=(250, 4)) - 6,
                          rng.normal(size=(250, 4)) + 6])
        test_y = np.array([0] * 250 + [1] * 250)
        acc, f1 = metrics.knn_eval(train, train_y, test, test_y, 5)
        assert acc >= 0.99
        assert 0.0 <= f1 <= 1.0

    def test_label_permutation_invariance(self):
        rng = np.random.default_rng(511)
        train = rng.normal(size=(30, 3))
        train_y = rng.integers(0, 3, size=30)
        test = rng.normal(size=(50, 3))
        test_y = rng.integers(0, 3, size=50)
        acc1, _ = metrics.knn_eval(train, train_y, test, test_y, 3)
        relabel = np.array([2, 0, 1])
        acc2, _ = metrics.knn_eval(train, relabel[train_y], test,
                                   relabel[test_y], 3)
        assert acc1 == acc2

    def test_vote_tie_broken_by_nearest(self):
        train = np.array([[0.0], [2.0], [10.0], [12.0]])
        train_y = np.array([0, 0, 1, 1])
        acc, _ = metrics.knn_eval(train, train_y, np.array([[1.0]]),
                                  np.array([0]), 4)
        assert acc == 1.0  # votes tie 2-2; point 0 is nearest

    def test_empty_train_rejected(self):
        with pytest.raises(InvalidInputError):
            metrics.knn_eval(np.zeros((0, 2)), np.zeros(0),
                             np.zeros((1, 2)), np.zeros(1), 1)


class TestPca2d:
    def test_centered_2d_data_preserves_distances(self):
        rng = np.random.default_rng(520)
        Z = rng.normal(size=(30, 2))
        Z -= Z.mean(axis=0)
        coords = metrics.pca2d(Z)
        orig = np.linalg.norm(Z[:, None] - Z[None], axis=2)
        new = np.linalg.norm(coords[:, None] - coords[None], axis=2)
        assert np.max(np.abs(orig - new)) <= 1e-9

    def test_rank_one_second_coordinate_vanishes(self):
        t = np.linspace(-1, 1, 20)
        Z = np.outer(t, [1.0, 2.0, -1.0])
        coords = metrics.pca2d(Z)
        assert np.max(np.abs(coords[:, 1])) <= 1e-9

    def test_captured_variance_matches_top_eigenvalues(self):
        rng = np.random.default_rng(521)
        Z = rng.normal(size=(50, 8)) @ np.diag([5, 4, 3, 2, 1, 1, 1, 1])
        coords = metrics.pca2d(Z)
        centered = Z - Z.mean(axis=0)
        w = np.linalg.eigvalsh(centered.T @ centered / 49)
        captured = coords.var(axis=0, ddof=1).sum()
        assert captured == pytest.approx(w[-1] + w[-2], abs=1e-9 * w[-1])

    def test_deterministic_sign(self):
        rng = np.random.default_rng(522)
        Z = rng.normal(size=(25, 5))
        a = metrics.pca2d(Z)
        b = metrics.pca2d(Z.copy())
        assert np.array_equal(a, b)

    def test_needs_two_samples(self):
        with pytest.raises(InvalidInputError):
            metrics.pca2d(np.ones((1, 3)))
