"""Scenario II: model selection from raw pairwise constraints (gene expression).

Here the side information is *not* a set of labelled objects but a
collection of should-link / should-not-link statements — the situation of a
biologist who knows that certain gene pairs are co-regulated (must-link) or
belong to different pathways (cannot-link) without having a full labelling.

The example uses the Zyeast analogue (205 genes x 20 conditions, 4
expression patterns), builds a constraint pool as in the paper's setup,
hands 20% of it to the algorithms, and lets CVCP pick

* MinPts for FOSC-OPTICSDend (density-based), and
* k for MPCK-Means (partitional), also comparing against the Silhouette
  baseline for the latter.

Run with::

    python examples/constraint_scenario_gene_expression.py
"""

from __future__ import annotations

from repro import (
    CVCP,
    FOSCOpticsDend,
    MPCKMeans,
    build_constraint_pool,
    make_zyeast_like,
    overall_f_measure,
    sample_constraint_subset,
    silhouette_score,
)


def main() -> None:
    data = make_zyeast_like(random_state=3)
    pool = build_constraint_pool(data.y, fraction_per_class=0.10, random_state=3)
    constraints = sample_constraint_subset(pool, 0.20, random_state=3)
    exclude = constraints.involved_objects()

    print(f"data set: {data.name} ({data.n_samples} genes, {data.n_features} conditions)")
    print(f"constraint pool: {len(pool)} constraints "
          f"({pool.n_must_link} must-link, {pool.n_cannot_link} cannot-link)")
    print(f"given to the algorithms: {len(constraints)} constraints (20% of the pool)\n")

    # --- density-based algorithm: select MinPts ------------------------------
    minpts_range = [3, 6, 9, 12, 15, 18, 21, 24]
    fosc_search = CVCP(FOSCOpticsDend(), minpts_range, n_folds=5, random_state=3)
    fosc_search.fit(data.X, constraints=constraints)
    fosc_quality = overall_f_measure(data.y, fosc_search.labels_, exclude=exclude)
    print("FOSC-OPTICSDend (density-based):")
    print(f"  CVCP selected MinPts = {fosc_search.best_params_['min_pts']}")
    print(f"  clusters found       = {fosc_search.best_estimator_.n_clusters_}")
    print(f"  Overall F-Measure    = {fosc_quality:.3f}\n")

    # --- partitional algorithm: select k, CVCP vs Silhouette -----------------
    k_range = list(range(2, 9))
    mpck_template = MPCKMeans(random_state=3)
    mpck_search = CVCP(mpck_template, k_range, n_folds=5, random_state=3)
    mpck_search.fit(data.X, constraints=constraints)
    mpck_quality = overall_f_measure(data.y, mpck_search.labels_, exclude=exclude)

    # The Silhouette baseline: fit every k with the same constraints and keep
    # the partition with the highest mean silhouette width.
    models = [mpck_template.clone(n_clusters=k).fit(data.X, constraints=constraints) for k in k_range]
    silhouettes = [silhouette_score(data.X, model.labels_) for model in models]
    best = silhouettes.index(max(silhouettes))
    silhouette_quality = overall_f_measure(data.y, models[best].labels_, exclude=exclude)

    print("MPCK-Means (partitional):")
    print(f"  CVCP selected k        = {mpck_search.best_params_['n_clusters']}"
          f"  ->  Overall F = {mpck_quality:.3f}")
    print(f"  Silhouette selected k  = {k_range[best]}"
          f"  ->  Overall F = {silhouette_quality:.3f}\n")

    winner = "density-based (FOSC)" if fosc_quality >= mpck_quality else "partitional (MPCK)"
    print(f"best model for this data: {winner}")
    print("(elongated expression patterns favour the density-based paradigm, "
          "as the paper observes for Zyeast)")


if __name__ == "__main__":
    main()
