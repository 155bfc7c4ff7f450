"""Unit tests for the result containers and the expected-quality reference."""

import numpy as np
import pytest

from repro.core import CVCPResult, expected_quality
from repro.core.model_selection import ParameterEvaluation
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


class TestExpectedQuality:
    def test_is_the_mean(self):
        assert expected_quality([0.2, 0.4, 0.9]) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            expected_quality([])


class TestParameterRanges:
    def test_paper_minpts_range(self):
        assert MINPTS_RANGE == (3, 6, 9, 12, 15, 18, 21, 24)
