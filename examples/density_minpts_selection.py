"""Selecting MinPts for density-based semi-supervised clustering (FOSC-OPTICSDend).

This is the scenario the paper emphasises: for density-based clustering
there is *no* classical internal heuristic for choosing MinPts (the
Silhouette coefficient assumes globular clusters), so CVCP is the only
data-driven option when partial labels are available.

The example uses an ALOI-like image data set (125 objects from 5 categories
described by 144 colour-moment-like attributes) and compares three ways of
choosing MinPts:

* CVCP (cross-validated constraint classification),
* guessing uniformly from the range (the paper's "expected performance"),
* an oracle that peeks at the ground truth (upper bound).

Run with::

    python examples/density_minpts_selection.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    CVCP,
    FOSCOpticsDend,
    constraints_from_labels,
    expected_quality,
    make_aloi_k5_like,
    overall_f_measure,
    sample_labeled_objects,
)
from repro.experiments.config import MINPTS_RANGE


def main() -> None:
    data = make_aloi_k5_like(random_state=7)
    labeled_objects = sample_labeled_objects(data.y, 0.10, random_state=7)
    constraints = constraints_from_labels(labeled_objects)
    exclude = labeled_objects.keys()

    print(f"data set: {data.name} ({data.n_samples} objects, {data.n_features} features)")
    print(f"side information: labels for {len(labeled_objects)} objects\n")

    # External quality of every candidate MinPts (for reporting only — a real
    # user cannot compute this because it needs the ground truth).
    external = []
    for min_pts in MINPTS_RANGE:
        model = FOSCOpticsDend(min_pts=min_pts).fit(data.X, constraints=constraints)
        external.append(overall_f_measure(data.y, model.labels_, exclude=exclude))

    # CVCP selection using only the available labels.
    search = CVCP(FOSCOpticsDend(), MINPTS_RANGE, n_folds=5, random_state=7)
    search.fit(data.X, labeled_objects=labeled_objects)
    selected = search.best_params_["min_pts"]

    print("MinPts   internal (CVCP)   external (Overall F)")
    for min_pts, internal, quality in zip(
        MINPTS_RANGE, search.cv_results_.mean_scores, external
    ):
        marker = "  <-- CVCP" if min_pts == selected else ""
        print(f"{min_pts:6d}   {internal:15.3f}   {quality:19.3f}{marker}")

    cvcp_quality = external[MINPTS_RANGE.index(selected)]
    oracle_quality = max(external)
    print(f"\nCVCP-selected MinPts : {selected}  ->  Overall F = {cvcp_quality:.3f}")
    print(f"expected (guessing)  :      ->  Overall F = {expected_quality(external):.3f}")
    print(f"oracle (best value)  : {MINPTS_RANGE[int(np.argmax(external))]}  ->  Overall F = {oracle_quality:.3f}")
    print(f"\ncorrelation between internal and external scores: "
          f"{np.corrcoef(search.cv_results_.mean_scores, external)[0, 1]:.3f}")


if __name__ == "__main__":
    main()
