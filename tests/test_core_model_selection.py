"""Unit tests for result containers and baseline selectors."""

import numpy as np
import pytest

from repro.clustering import KMeans, MPCKMeans
from repro.constraints import constraints_from_labels, sample_labeled_objects
from repro.core import CVCPResult, SilhouetteSelector, expected_quality
from repro.core.model_selection import ParameterEvaluation, parameter_range_for_k
from repro.experiments.config import MINPTS_RANGE


class TestParameterEvaluation:
    def test_mean_and_std(self):
        evaluation = ParameterEvaluation(value=3, fold_scores=[0.5, 0.7, 0.9])
        assert evaluation.mean_score == pytest.approx(0.7)
        assert evaluation.std_score == pytest.approx(np.std([0.5, 0.7, 0.9]))

    def test_empty_scores(self):
        evaluation = ParameterEvaluation(value=3)
        assert evaluation.mean_score == 0.0
        assert evaluation.std_score == 0.0


class TestCVCPResult:
    def _result(self):
        return CVCPResult(
            parameter_name="k",
            evaluations=[
                ParameterEvaluation(2, [0.4, 0.5]),
                ParameterEvaluation(3, [0.9, 0.8]),
                ParameterEvaluation(4, [0.7, 0.6]),
            ],
            n_folds=2,
            scenario="labels",
        )

    def test_best_value_and_score(self):
        result = self._result()
        assert result.best_value == 3
        assert result.best_score == pytest.approx(0.85)
        assert result.best_index == 1

    def test_values_and_mean_scores(self):
        result = self._result()
        assert result.values == [2, 3, 4]
        assert np.allclose(result.mean_scores, [0.45, 0.85, 0.65])

    def test_tie_breaks_towards_smaller_value(self):
        result = CVCPResult(
            parameter_name="k",
            evaluations=[ParameterEvaluation(2, [0.8]), ParameterEvaluation(5, [0.8])],
            n_folds=1,
            scenario="labels",
        )
        assert result.best_value == 2

    def test_empty_result_raises(self):
        result = CVCPResult("k", [], 3, "labels")
        with pytest.raises(ValueError):
            _ = result.best_value


class TestSilhouetteSelector:
    def test_selects_true_k_on_blobs(self, blobs_dataset):
        selector = SilhouetteSelector(KMeans(random_state=0), [2, 3, 4, 5])
        selector.fit(blobs_dataset.X)
        assert selector.best_value_ == 3
        assert selector.labels_.shape == (blobs_dataset.n_samples,)
        assert len(selector.scores_) == 4

    def test_uses_side_information_through_estimator(self, blobs_dataset):
        labeled = sample_labeled_objects(blobs_dataset.y, 0.2, random_state=0)
        constraints = constraints_from_labels(labeled)
        selector = SilhouetteSelector(
            MPCKMeans(random_state=0, n_init=1, max_iter=10), [2, 3, 4]
        )
        selector.fit(blobs_dataset.X, constraints=constraints)
        assert selector.best_value_ in [2, 3, 4]

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            SilhouetteSelector(KMeans(), [])

    def test_missing_parameter_name_rejected(self):
        class Nameless(KMeans):
            tuned_parameter = ""

        with pytest.raises(ValueError):
            SilhouetteSelector(Nameless(), [2, 3])


class TestExpectedQuality:
    def test_is_the_mean(self):
        assert expected_quality([0.2, 0.4, 0.9]) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            expected_quality([])


class TestParameterRanges:
    def test_paper_minpts_range(self):
        assert MINPTS_RANGE == (3, 6, 9, 12, 15, 18, 21, 24)

    def test_k_range(self):
        assert parameter_range_for_k(5) == [2, 3, 4, 5]
        with pytest.raises(ValueError):
            parameter_range_for_k(1)
