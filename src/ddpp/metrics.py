"""Selection quality metrics and downstream evaluation helpers."""

import math

import numpy as np

from .errors import (DegenerateInputError, InvalidInputError,
                     ScalingViolationError)


def rde(gt_logdet, sel_logdet):
    """1 - sel/gt ratio of log-volumes, clamped to [0, 1]; 0 is optimal.

    Takes the ``dpp.subset_logdet`` of the ground-truth and of the selected
    rows.  Requires the dataset to be pre-scaled so the ground-truth
    log-volume is positive; a singular selection saturates at 1.
    """
    if not gt_logdet > 0:
        raise ScalingViolationError(
            f"ground-truth log det is {gt_logdet:g}; rescale features until positive")
    return min(max(1.0 - sel_logdet / gt_logdet, 0.0), 1.0)


def welch_ttest(xs, ys):
    """Two-sided Welch t-test; returns (t, p).

    Uses the Welch-Satterthwaite degrees of freedom and the regularized
    incomplete beta function for the tail probability.  SciPy, which
    provides it, is imported here so that nothing else in the package loads it.
    """
    from scipy.special import betainc

    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.size < 2 or ys.size < 2:
        raise InvalidInputError("both samples need at least two observations")
    vx, vy = xs.var(ddof=1), ys.var(ddof=1)
    if vx == 0.0 and vy == 0.0:
        raise DegenerateInputError("both samples have zero variance")
    nx, ny = xs.size, ys.size
    se2 = vx / nx + vy / ny
    t = (xs.mean() - ys.mean()) / math.sqrt(se2)
    df = se2 ** 2 / ((vx / nx) ** 2 / (nx - 1) + (vy / ny) ** 2 / (ny - 1))
    p = float(betainc(df / 2.0, 0.5, df / (df + t * t)))
    return float(t), p


def knn_eval(train_Z, train_labels, test_Z, test_labels, k_neighbors):
    """Euclidean k-nearest-neighbor vote; returns (accuracy, macro F1).

    Vote ties go to the tied class with the closest representative.
    """
    train_Z = np.asarray(train_Z, dtype=np.float64)
    test_Z = np.asarray(test_Z, dtype=np.float64)
    train_labels = np.asarray(train_labels)
    test_labels = np.asarray(test_labels)
    if train_Z.shape[0] == 0:
        raise InvalidInputError("empty training set")
    if k_neighbors < 1:
        raise InvalidInputError("k_neighbors must be at least 1")
    k = min(k_neighbors, train_Z.shape[0])
    d2 = (np.sum(test_Z ** 2, axis=1)[:, None]
          + np.sum(train_Z ** 2, axis=1)[None, :]
          - 2.0 * test_Z @ train_Z.T)
    predictions = np.empty(test_Z.shape[0], dtype=train_labels.dtype)
    for i in range(test_Z.shape[0]):
        order = np.argsort(d2[i], kind="stable")[:k]
        votes = {}
        for rank, j in enumerate(order):
            lab = train_labels[j]
            count, first = votes.get(lab, (0, rank))
            votes[lab] = (count + 1, first)
        predictions[i] = max(votes, key=lambda lab: (votes[lab][0], -votes[lab][1]))
    accuracy = float(np.mean(predictions == test_labels))
    return accuracy, _macro_f1(test_labels, predictions)


def _macro_f1(y_true, y_pred):
    classes = sorted(set(y_true.tolist()) | set(y_pred.tolist()))
    scores = []
    for c in classes:
        tp = int(np.sum((y_pred == c) & (y_true == c)))
        fp = int(np.sum((y_pred == c) & (y_true != c)))
        fn = int(np.sum((y_pred != c) & (y_true == c)))
        denom = 2 * tp + fp + fn
        scores.append(2 * tp / denom if denom else 0.0)
    return float(np.mean(scores))


def pca2d(Z):
    """Projection onto the top-2 principal axes of the centered data.

    Sign convention: each axis is flipped so its largest-magnitude
    component is positive, making the output deterministic.
    """
    Z = np.asarray(Z, dtype=np.float64)
    if Z.shape[0] < 2:
        raise InvalidInputError("need at least two samples")
    centered = Z - Z.mean(axis=0)
    cov = centered.T @ centered / (Z.shape[0] - 1)
    w, V = np.linalg.eigh((cov + cov.T) / 2.0)
    axes = V[:, np.argsort(w)[::-1][:2]]
    if axes.shape[1] < 2:  # single-column input still yields two coordinates
        axes = np.hstack([axes, np.zeros((axes.shape[0], 2 - axes.shape[1]))])
    for c in range(axes.shape[1]):
        col = axes[:, c]
        if col.size and col[np.argmax(np.abs(col))] < 0:
            axes[:, c] = -col
    return centered @ axes
