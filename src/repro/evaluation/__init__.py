"""Clustering evaluation measures.

* :mod:`repro.evaluation.confusion` — pair-level and constraint-level
  confusion counts (the bridge between clustering and classification
  evaluation used by CVCP).
* :mod:`repro.evaluation.external` — external measures against a ground
  truth: the paper's Overall F-Measure and the Adjusted Rand Index.
* :mod:`repro.evaluation.internal` — internal measures: Silhouette
  coefficient (the baseline of Section 4.3).
* :mod:`repro.evaluation.significance` — the paired t-test used to mark
  significant differences in the result tables.
"""

from repro.evaluation.confusion import (
    ConstraintConfusion,
    constraint_confusion,
    pair_confusion_matrix,
)
from repro.evaluation.external import (
    overall_f_measure,
    adjusted_rand_index,
    evaluation_mask,
)
from repro.evaluation.internal import (
    silhouette_score,
    silhouette_samples,
)
from repro.evaluation.significance import PairedTTestResult, paired_t_test

__all__ = [
    "ConstraintConfusion",
    "constraint_confusion",
    "pair_confusion_matrix",
    "overall_f_measure",
    "adjusted_rand_index",
    "evaluation_mask",
    "silhouette_score",
    "silhouette_samples",
    "PairedTTestResult",
    "paired_t_test",
]
