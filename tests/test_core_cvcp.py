"""Unit and behavioural tests for the CVCP driver."""

import warnings

import numpy as np
import pytest

from repro.clustering import FOSCOpticsDend, KMeans, MPCKMeans
from repro.constraints import build_constraint_pool, constraints_from_labels, sample_labeled_objects
from repro.core import CVCP, NoTestConstraintsWarning
from repro.datasets import make_blobs
from repro.evaluation import overall_f_measure


@pytest.fixture()
def side_information(blobs_dataset):
    return sample_labeled_objects(blobs_dataset.y, 0.20, random_state=0)


class TestCVCPLabelScenario:
    def test_selects_a_candidate_value(self, blobs_dataset, side_information):
        search = CVCP(MPCKMeans(random_state=0, n_init=1, max_iter=10),
                      parameter_values=[2, 3, 4, 5], n_folds=3, random_state=0)
        search.fit(blobs_dataset.X, labeled_objects=side_information)
        assert search.best_params_["n_clusters"] in [2, 3, 4, 5]
        assert 0.0 <= search.best_score_ <= 1.0

    def test_finds_true_k_on_well_separated_blobs(self, blobs_dataset, side_information):
        search = CVCP(MPCKMeans(random_state=0, n_init=2, max_iter=15),
                      parameter_values=[2, 3, 4, 5, 6], n_folds=4, random_state=2)
        search.fit(blobs_dataset.X, labeled_objects=side_information)
        # Three well-separated blobs: k=3 (or a very close value) should win
        # and, more importantly, the refit partition should match the truth.
        score = overall_f_measure(blobs_dataset.y, search.labels_,
                                  exclude=side_information.keys())
        assert score > 0.9

    def test_cv_results_structure(self, blobs_dataset, side_information):
        search = CVCP(MPCKMeans(random_state=0, n_init=1, max_iter=10),
                      parameter_values=[2, 3, 4], n_folds=3, random_state=0)
        search.fit(blobs_dataset.X, labeled_objects=side_information)
        results = search.cv_results_
        assert results.parameter_name == "n_clusters"
        assert results.values == [2, 3, 4]
        assert results.scenario == "labels"
        assert results.n_folds == 3
        assert all(len(e.fold_scores) == 3 for e in results.evaluations)
        assert results.best_value == results.values[int(np.argmax(results.mean_scores))]
        table = results.as_table()
        assert len(table) == 3 and len(table[0]) == 3

    def test_refit_disabled(self, blobs_dataset, side_information):
        search = CVCP(MPCKMeans(random_state=0, n_init=1, max_iter=10),
                      parameter_values=[2, 3], n_folds=3, refit=False, random_state=0)
        search.fit(blobs_dataset.X, labeled_objects=side_information)
        assert not hasattr(search, "labels_")
        with pytest.raises(ValueError):
            search.fit_predict(blobs_dataset.X, labeled_objects=side_information)

    def test_fit_predict_returns_labels(self, blobs_dataset, side_information):
        search = CVCP(MPCKMeans(random_state=0, n_init=1, max_iter=10),
                      parameter_values=[2, 3, 4], n_folds=3, random_state=0)
        labels = search.fit_predict(blobs_dataset.X, labeled_objects=side_information)
        assert labels.shape == (blobs_dataset.n_samples,)

    def test_use_labels_directly_path(self, blobs_dataset, side_information):
        search = CVCP(MPCKMeans(random_state=0, n_init=1, max_iter=10),
                      parameter_values=[2, 3], n_folds=3, random_state=0,
                      use_labels_directly=True)
        search.fit(blobs_dataset.X, labeled_objects=side_information)
        assert hasattr(search, "labels_")

    def test_works_with_density_algorithm(self, blobs_dataset, side_information):
        search = CVCP(FOSCOpticsDend(), parameter_values=[3, 5, 8, 12],
                      n_folds=3, random_state=0)
        search.fit(blobs_dataset.X, labeled_objects=side_information)
        assert search.best_params_["min_pts"] in [3, 5, 8, 12]
        score = overall_f_measure(blobs_dataset.y, search.labels_,
                                  exclude=side_information.keys())
        assert score > 0.85

    def test_works_with_unsupervised_estimator(self, blobs_dataset, side_information):
        """A plain k-means ignores the constraints, but CVCP still scores it."""
        search = CVCP(KMeans(random_state=0, n_init=2), parameter_values=[2, 3, 4],
                      n_folds=3, random_state=0)
        search.fit(blobs_dataset.X, labeled_objects=side_information)
        assert search.best_params_["n_clusters"] in [2, 3, 4]


class TestCVCPConstraintScenario:
    def test_constraint_input(self, blobs_dataset):
        pool = build_constraint_pool(blobs_dataset.y, fraction_per_class=0.2, random_state=0)
        search = CVCP(MPCKMeans(random_state=0, n_init=1, max_iter=10),
                      parameter_values=[2, 3, 4], n_folds=3, random_state=0)
        search.fit(blobs_dataset.X, constraints=pool)
        assert search.cv_results_.scenario == "constraints"
        assert search.best_params_["n_clusters"] in [2, 3, 4]

    def test_providing_both_inputs_rejected(self, blobs_dataset, side_information):
        constraints = constraints_from_labels(side_information)
        search = CVCP(MPCKMeans(random_state=0), parameter_values=[2, 3], n_folds=3)
        with pytest.raises(ValueError):
            search.fit(blobs_dataset.X, labeled_objects=side_information,
                       constraints=constraints)

    def test_providing_nothing_rejected(self, blobs_dataset):
        search = CVCP(MPCKMeans(random_state=0), parameter_values=[2, 3], n_folds=3)
        with pytest.raises(ValueError):
            search.fit(blobs_dataset.X)


class TestCVCPValidation:
    def test_empty_parameter_values(self):
        with pytest.raises(ValueError):
            CVCP(MPCKMeans(), parameter_values=[])

    def test_missing_parameter_name(self):
        class Nameless(KMeans):
            tuned_parameter = ""

        with pytest.raises(ValueError):
            CVCP(Nameless(), parameter_values=[2, 3])

    def test_invalid_n_folds(self):
        with pytest.raises(ValueError):
            CVCP(MPCKMeans(), parameter_values=[2], n_folds=1)

    def test_unknown_scoring_rejected_at_construction(self):
        # Before any fold is built: a journal-served grid, or one whose
        # folds have no test constraints, never scores a cell.
        with pytest.raises(ValueError, match=r"^unknown scoring 'bogus'; available scorers: \['accuracy'"):
            CVCP(FOSCOpticsDend(), parameter_values=[3, 5], scoring="bogus")

    def test_unscored_grid_warns_and_selects_the_first_value(self):
        # Two labels in two folds: each fold tests one object, so no fold
        # has a test constraint and every candidate scores 0.0.
        X = make_blobs([30, 30, 30], 2, center_spread=6.0, cluster_std=1.0, random_state=4).X
        search = CVCP(FOSCOpticsDend(), [9, 3, 5], n_folds=2, random_state=0)
        with pytest.warns(NoTestConstraintsWarning, match=r"\{'min_pts': 9\}"):
            search.fit(X, labeled_objects={0: 0, 40: 1})
        assert search.best_params_ == {"min_pts": 9}
        assert search.best_score_ == 0.0
        assert [e.fold_scores for e in search.cv_results_.evaluations] == [[0.0, 0.0]] * 3
        assert issubclass(NoTestConstraintsWarning, UserWarning)

    def test_scored_grid_does_not_warn(self, blobs_dataset, side_information):
        with warnings.catch_warnings():
            warnings.simplefilter("error", NoTestConstraintsWarning)
            CVCP(FOSCOpticsDend(), [3, 5], n_folds=3, random_state=0).fit(
                blobs_dataset.X, labeled_objects=side_information
            )

    def test_reproducible_given_seed(self, blobs_dataset, side_information):
        def run():
            search = CVCP(MPCKMeans(random_state=0, n_init=1, max_iter=10),
                          parameter_values=[2, 3, 4], n_folds=3, random_state=7)
            search.fit(blobs_dataset.X, labeled_objects=side_information)
            return search.best_params_, search.cv_results_.mean_scores

        params_a, scores_a = run()
        params_b, scores_b = run()
        assert params_a == params_b
        assert np.allclose(scores_a, scores_b)


class TestRefitFreeSelection:
    def test_returns_value_and_results(self, blobs_dataset, side_information):
        search = CVCP(
            MPCKMeans(random_state=0, n_init=1, max_iter=10), [2, 3, 4],
            n_folds=3, refit=False, random_state=0,
        ).fit(blobs_dataset.X, labeled_objects=side_information)
        value = search.best_params_["n_clusters"]
        assert value in [2, 3, 4]
        assert search.cv_results_.best_value == value
