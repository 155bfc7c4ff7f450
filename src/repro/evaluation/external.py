"""External clustering evaluation against a ground-truth labelling.

The paper's headline external measure is the **Overall F-Measure**
(set-matching F): for every ground-truth class the best-matching cluster's
F-measure is taken and the results are averaged weighted by class size.
The Adjusted Rand Index is provided as a companion measure.

All measures accept an ``exclude`` index set so the evaluation can ignore
the objects whose labels/constraints were given to the semi-supervised
algorithm, as required by the "set aside" protocol discussed in Section 2
and used in Section 4.1 of the paper.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.evaluation.confusion import pair_confusion_matrix
from repro.utils.validation import check_labels


def evaluation_mask(n_samples: int, exclude: Iterable[int] | None = None) -> np.ndarray:
    """Boolean mask selecting the objects to evaluate on.

    Parameters
    ----------
    n_samples:
        Total number of objects.
    exclude:
        Indices to leave out (e.g. objects involved in the side information
        given to the algorithm).  ``None`` excludes nothing.
    """
    mask = np.ones(n_samples, dtype=bool)
    if exclude is not None:
        excluded = np.asarray(sorted(set(int(i) for i in exclude)), dtype=np.int64)
        if excluded.size:
            if excluded.min() < 0 or excluded.max() >= n_samples:
                raise ValueError("exclude contains indices outside the data set")
            mask[excluded] = False
    if not np.any(mask):
        raise ValueError("all objects were excluded from the evaluation")
    return mask


def _filtered(
    labels_true: Sequence[int] | np.ndarray,
    labels_pred: Sequence[int] | np.ndarray,
    exclude: Iterable[int] | None,
) -> tuple[np.ndarray, np.ndarray]:
    labels_true = check_labels(labels_true)
    labels_pred = check_labels(labels_pred, labels_true.shape[0], name="labels_pred")
    mask = evaluation_mask(labels_true.shape[0], exclude)
    return labels_true[mask], labels_pred[mask]


def overall_f_measure(
    labels_true: Sequence[int] | np.ndarray,
    labels_pred: Sequence[int] | np.ndarray,
    *,
    exclude: Iterable[int] | None = None,
) -> float:
    """Overall F-Measure (set-matching F) of a partition against the ground truth.

    For every ground-truth class ``c`` and every cluster ``k`` the F-measure
    of "cluster k retrieves class c" is computed; class ``c`` contributes the
    maximum over clusters, weighted by its relative size.  Noise objects in
    the prediction count as singleton clusters (so they can only be matched
    by classes of size one, i.e. they effectively count against recall).

    Returns a value in ``[0, 1]``; 1 means a perfect recovery of the classes.
    """
    true, pred = _filtered(labels_true, labels_pred, exclude)
    n = true.shape[0]

    # Noise points become unique singleton clusters.
    pred = pred.copy()
    noise = pred < 0
    if np.any(noise):
        next_label = pred.max() + 1 if pred.size else 0
        pred[noise] = np.arange(next_label, next_label + np.count_nonzero(noise))

    true_classes, true_idx = np.unique(true, return_inverse=True)
    pred_classes, pred_idx = np.unique(pred, return_inverse=True)
    contingency = np.zeros((true_classes.size, pred_classes.size), dtype=np.float64)
    np.add.at(contingency, (true_idx, pred_idx), 1.0)

    class_sizes = contingency.sum(axis=1)
    cluster_sizes = contingency.sum(axis=0)

    # F of class c vs cluster k: 2*n_ck / (|c| + |k|).
    with np.errstate(divide="ignore", invalid="ignore"):
        f_matrix = 2.0 * contingency / (class_sizes[:, None] + cluster_sizes[None, :])
    f_matrix = np.nan_to_num(f_matrix)

    best_f_per_class = f_matrix.max(axis=1)
    # The class weights sum to 1 only up to floating-point rounding, so a
    # perfect recovery can land a few ulps above 1; clamp to the contract.
    return float(min(1.0, np.sum(class_sizes / n * best_f_per_class)))


def adjusted_rand_index(
    labels_true: Sequence[int] | np.ndarray,
    labels_pred: Sequence[int] | np.ndarray,
    *,
    exclude: Iterable[int] | None = None,
) -> float:
    """Adjusted Rand Index (Hubert & Arabie, 1985)."""
    true, pred = _filtered(labels_true, labels_pred, exclude)
    n11, n10, n01, n00 = pair_confusion_matrix(true, pred)
    total = n11 + n10 + n01 + n00
    if total == 0:
        return 1.0
    expected = (n11 + n10) * (n11 + n01) / total
    maximum = 0.5 * ((n11 + n10) + (n11 + n01))
    if maximum == expected:
        return 1.0
    return float((n11 - expected) / (maximum - expected))
