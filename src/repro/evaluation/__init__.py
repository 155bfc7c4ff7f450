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

from repro.utils.exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "ConstraintConfusion": ".confusion",
        "constraint_confusion": ".confusion",
        "pair_confusion_matrix": ".confusion",
        "overall_f_measure": ".external",
        "adjusted_rand_index": ".external",
        "evaluation_mask": ".external",
        "silhouette_score": ".internal",
        "silhouette_samples": ".internal",
        "PairedTTestResult": ".significance",
        "paired_t_test": ".significance",
    },
)
