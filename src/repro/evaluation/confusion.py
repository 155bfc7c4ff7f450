"""Pair-level and constraint-level confusion counts.

Section 3.2 of the paper turns the evaluation of a semi-supervised
clustering into a two-class classification problem over constraints:
must-link is class 1 and cannot-link is class 0, and a produced partition
"classifies" a pair as class 1 if the two objects share a cluster and as
class 0 otherwise.  :func:`constraint_confusion` computes the resulting
confusion counts; :func:`pair_confusion_matrix` is the classic pair-counting
confusion over *all* pairs against a ground truth (used by ARI and the
pairwise F-measure).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constraints.constraint import MUST_LINK, ConstraintSet
from repro.utils.validation import check_labels


@dataclass(frozen=True)
class ConstraintConfusion:
    """Confusion counts of a partition classifying constraints.

    With must-link as the positive class:

    * ``tp`` — must-link pairs placed in the same cluster,
    * ``fn`` — must-link pairs placed in different clusters,
    * ``tn`` — cannot-link pairs placed in different clusters,
    * ``fp`` — cannot-link pairs placed in the same cluster.
    """

    tp: int
    fn: int
    tn: int
    fp: int

    @property
    def n_constraints(self) -> int:
        return self.tp + self.fn + self.tn + self.fp

    @property
    def n_must_link(self) -> int:
        return self.tp + self.fn

    @property
    def n_cannot_link(self) -> int:
        return self.tn + self.fp

    # -- per-class precision / recall / F ---------------------------------
    def precision_must_link(self) -> float:
        return _safe_divide(self.tp, self.tp + self.fp)

    def recall_must_link(self) -> float:
        return _safe_divide(self.tp, self.tp + self.fn)

    def f_measure_must_link(self) -> float:
        return _f_from_pr(self.precision_must_link(), self.recall_must_link())

    def precision_cannot_link(self) -> float:
        return _safe_divide(self.tn, self.tn + self.fn)

    def recall_cannot_link(self) -> float:
        return _safe_divide(self.tn, self.tn + self.fp)

    def f_measure_cannot_link(self) -> float:
        return _f_from_pr(self.precision_cannot_link(), self.recall_cannot_link())

    def average_f_measure(self) -> float:
        """Unweighted mean of the per-class F-measures (the CVCP internal score)."""
        scores: list[float] = []
        if self.n_must_link:
            scores.append(self.f_measure_must_link())
        if self.n_cannot_link:
            scores.append(self.f_measure_cannot_link())
        if not scores:
            return 0.0
        return float(np.mean(scores))

    def accuracy(self) -> float:
        """Fraction of constraints satisfied (an alternative internal score)."""
        return _safe_divide(self.tp + self.tn, self.n_constraints)


def _safe_divide(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


def _f_from_pr(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def constraint_confusion(
    labels: np.ndarray,
    constraints: ConstraintSet,
) -> ConstraintConfusion:
    """Classify every constraint with the partition ``labels``.

    Noise objects (label ``-1``) are treated as singletons: they are never
    in the same cluster as any other object (including other noise objects).
    """
    labels = check_labels(labels)
    i, j, kind = constraints.as_arrays()
    label_i, label_j = labels[i], labels[j]
    same = (label_i >= 0) & (label_j >= 0) & (label_i == label_j)
    must = kind == MUST_LINK
    tp = int(np.count_nonzero(must & same))
    fn = int(np.count_nonzero(must)) - tp
    fp = int(np.count_nonzero(same)) - tp
    tn = len(kind) - tp - fn - fp
    return ConstraintConfusion(tp=tp, fn=fn, tn=tn, fp=fp)


def pair_confusion_matrix(labels_true: np.ndarray, labels_pred: np.ndarray) -> tuple[int, int, int, int]:
    """Pair-counting confusion of a predicted partition against a ground truth.

    Returns
    -------
    tuple
        ``(n11, n10, n01, n00)`` — pairs together in both, together only in
        the truth, together only in the prediction, together in neither.
        Noise objects in the prediction are treated as singleton clusters.
    """
    labels_true = check_labels(labels_true)
    labels_pred = check_labels(labels_pred, labels_true.shape[0], name="labels_pred")

    # Give each noise object its own unique (negative-free) cluster label so
    # the contingency table treats it as a singleton.
    pred = labels_pred.copy()
    noise = pred < 0
    if np.any(noise):
        next_label = pred.max() + 1 if pred.size else 0
        pred[noise] = np.arange(next_label, next_label + np.count_nonzero(noise))

    true_classes, true_idx = np.unique(labels_true, return_inverse=True)
    pred_classes, pred_idx = np.unique(pred, return_inverse=True)
    contingency = np.zeros((true_classes.size, pred_classes.size), dtype=np.int64)
    np.add.at(contingency, (true_idx, pred_idx), 1)

    n = labels_true.shape[0]
    sum_squares = int((contingency.astype(np.float64) ** 2).sum())
    row_sums = contingency.sum(axis=1)
    col_sums = contingency.sum(axis=0)
    sum_rows_sq = int((row_sums.astype(np.float64) ** 2).sum())
    sum_cols_sq = int((col_sums.astype(np.float64) ** 2).sum())

    n11 = (sum_squares - n) // 2
    n10 = (sum_rows_sq - sum_squares) // 2
    n01 = (sum_cols_sq - sum_squares) // 2
    n00 = n * (n - 1) // 2 - n11 - n10 - n01
    return int(n11), int(n10), int(n01), int(n00)
