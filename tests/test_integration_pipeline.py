"""End-to-end integration tests: the full CVCP workflow on realistic data.

These are the behavioural claims of the paper, checked on the synthetic
analogues at a small scale:

* the CVCP-selected parameter is at least as good (externally) as guessing,
* the internal scores correlate positively with the external quality when
  the clustering paradigm fits the data,
* both scenarios (labels / constraints) and both algorithms work end to end.
"""

import numpy as np
import pytest

from repro.clustering import FOSCOpticsDend, MPCKMeans
from repro.constraints import (
    build_constraint_pool,
    constraints_from_labels,
    sample_constraint_subset,
    sample_labeled_objects,
)
from repro.core import CVCP, expected_quality
from repro.datasets import make_aloi_k5_like, make_two_moons
from repro.evaluation import overall_f_measure, silhouette_score


@pytest.fixture(scope="module")
def aloi():
    return make_aloi_k5_like(random_state=11)


class TestCVCPBeatsGuessingOnALOI:
    def test_fosc_label_scenario(self, aloi):
        side = sample_labeled_objects(aloi.y, 0.10, random_state=0)
        values = [3, 6, 9, 12, 15, 18]
        search = CVCP(FOSCOpticsDend(), values, n_folds=4, random_state=0)
        search.fit(aloi.X, labeled_objects=side)

        constraints = constraints_from_labels(side)
        externals = []
        for value in values:
            model = FOSCOpticsDend(min_pts=value).fit(aloi.X, constraints=constraints)
            externals.append(overall_f_measure(aloi.y, model.labels_, exclude=side.keys()))
        selected_quality = externals[values.index(search.best_params_["min_pts"])]
        assert selected_quality >= expected_quality(externals) - 1e-9

    def test_mpck_constraint_scenario(self, aloi):
        pool = build_constraint_pool(aloi.y, random_state=1)
        subset = sample_constraint_subset(pool, 0.5, random_state=1)
        values = [2, 3, 4, 5, 6, 7]
        search = CVCP(MPCKMeans(random_state=0, n_init=1, max_iter=12), values,
                      n_folds=4, random_state=1)
        search.fit(aloi.X, constraints=subset)

        exclude = subset.involved_objects()
        externals = []
        for value in values:
            model = MPCKMeans(n_clusters=value, random_state=0, n_init=1, max_iter=12)
            model.fit(aloi.X, constraints=subset)
            externals.append(overall_f_measure(aloi.y, model.labels_, exclude=exclude))
        selected_quality = externals[values.index(search.best_params_["n_clusters"])]
        assert selected_quality >= expected_quality(externals) - 0.05

    def test_internal_external_correlation_positive_for_fosc(self, aloi):
        side = sample_labeled_objects(aloi.y, 0.20, random_state=3)
        values = [3, 6, 9, 15, 21]
        search = CVCP(FOSCOpticsDend(), values, n_folds=4, refit=False, random_state=3)
        search.fit(aloi.X, labeled_objects=side)
        internal = search.cv_results_.mean_scores

        constraints = constraints_from_labels(side)
        external = []
        for value in values:
            model = FOSCOpticsDend(min_pts=value).fit(aloi.X, constraints=constraints)
            external.append(overall_f_measure(aloi.y, model.labels_, exclude=side.keys()))
        if np.std(internal) > 0 and np.std(external) > 0:
            correlation = float(np.corrcoef(internal, external)[0, 1])
            assert correlation > 0.3


class TestDensityVsPartitionalParadigm:
    def test_cvcp_picks_a_working_minpts_on_moons(self):
        """Non-convex structure: density-based clustering succeeds, k-means cannot."""
        data = make_two_moons(240, noise=0.06, random_state=5)
        side = sample_labeled_objects(data.y, 0.10, random_state=5)

        fosc_search = CVCP(FOSCOpticsDend(), [3, 5, 8, 12, 18], n_folds=4, random_state=5)
        fosc_search.fit(data.X, labeled_objects=side)
        fosc_score = overall_f_measure(data.y, fosc_search.labels_, exclude=side.keys())

        mpck_search = CVCP(MPCKMeans(random_state=0, n_init=2, max_iter=20), [2, 3, 4, 5],
                           n_folds=4, random_state=5)
        mpck_search.fit(data.X, labeled_objects=side)
        mpck_score = overall_f_measure(data.y, mpck_search.labels_, exclude=side.keys())

        assert fosc_score > 0.85
        assert fosc_score >= mpck_score

    def test_silhouette_baseline_runs_with_constraints(self, aloi):
        side = sample_labeled_objects(aloi.y, 0.10, random_state=7)
        constraints = constraints_from_labels(side)
        template = MPCKMeans(random_state=0, n_init=1, max_iter=10)
        models = [template.clone(n_clusters=k).fit(aloi.X, constraints=constraints)
                  for k in [2, 3, 4, 5, 6]]
        silhouettes = [silhouette_score(aloi.X, model.labels_) for model in models]
        best = models[int(np.argmax(silhouettes))]
        assert best.n_clusters in [2, 3, 4, 5, 6]
        quality = overall_f_measure(aloi.y, best.labels_, exclude=side.keys())
        assert 0.0 <= quality <= 1.0


class TestScenarioEquivalence:
    def test_label_and_constraint_scenarios_agree_on_easy_data(self, blobs_dataset):
        """With generous information, both scenarios should find a good model."""
        side = sample_labeled_objects(blobs_dataset.y, 0.25, random_state=0)
        constraints = constraints_from_labels(side)

        by_labels = CVCP(FOSCOpticsDend(), [3, 5, 8], n_folds=3, random_state=0)
        by_labels.fit(blobs_dataset.X, labeled_objects=side)
        by_constraints = CVCP(FOSCOpticsDend(), [3, 5, 8], n_folds=3, random_state=0)
        by_constraints.fit(blobs_dataset.X, constraints=constraints)

        score_labels = overall_f_measure(blobs_dataset.y, by_labels.labels_,
                                         exclude=side.keys())
        score_constraints = overall_f_measure(blobs_dataset.y, by_constraints.labels_,
                                              exclude=side.keys())
        assert score_labels > 0.85
        assert score_constraints > 0.85
