"""Unit tests for external clustering evaluation measures."""

import numpy as np
import pytest

from repro.evaluation import (
    adjusted_rand_index,
    evaluation_mask,
    overall_f_measure,
)


@pytest.fixture()
def truth():
    return np.array([0, 0, 0, 1, 1, 1, 2, 2, 2])


class TestOverallFMeasure:
    def test_perfect_partition(self, truth):
        assert overall_f_measure(truth, truth) == pytest.approx(1.0)

    def test_label_permutation_invariant(self, truth):
        permuted = (truth + 1) % 3
        assert overall_f_measure(truth, permuted) == pytest.approx(1.0)

    def test_single_cluster_prediction(self, truth):
        prediction = np.zeros_like(truth)
        # Every class of 3 matched against the single cluster of 9: F = 2*3/(3+9) = 0.5.
        assert overall_f_measure(truth, prediction) == pytest.approx(0.5)

    def test_all_noise_prediction_is_poor(self, truth):
        prediction = np.full_like(truth, -1)
        # Every class of size 3 vs singletons: best F = 2*1/(3+1) = 0.5.
        assert overall_f_measure(truth, prediction) == pytest.approx(0.5)

    def test_merging_two_classes(self, truth):
        prediction = np.array([0, 0, 0, 1, 1, 1, 1, 1, 1])
        score = overall_f_measure(truth, prediction)
        expected = (3 / 9) * 1.0 + 2 * (3 / 9) * (2 * 3 / (3 + 6))
        assert score == pytest.approx(expected)

    def test_exclude_side_information_objects(self, truth):
        prediction = truth.copy()
        prediction[0] = 2  # a mistake on an excluded object should not matter
        assert overall_f_measure(truth, prediction, exclude=[0]) == pytest.approx(1.0)
        assert overall_f_measure(truth, prediction) < 1.0

    def test_exclude_everything_raises(self, truth):
        with pytest.raises(ValueError):
            overall_f_measure(truth, truth, exclude=range(9))

    def test_exclude_out_of_range_raises(self, truth):
        with pytest.raises(ValueError):
            overall_f_measure(truth, truth, exclude=[99])

    def test_bounded_between_zero_and_one(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            truth = rng.integers(0, 4, size=40)
            prediction = rng.integers(-1, 5, size=40)
            score = overall_f_measure(truth, prediction)
            assert 0.0 <= score <= 1.0


class TestAdjustedRandIndex:
    def test_perfect_and_permuted(self, truth):
        assert adjusted_rand_index(truth, truth) == pytest.approx(1.0)
        assert adjusted_rand_index(truth, (truth + 1) % 3) == pytest.approx(1.0)

    def test_random_labelling_near_zero(self):
        rng = np.random.default_rng(0)
        truth = rng.integers(0, 5, size=500)
        prediction = rng.integers(0, 5, size=500)
        assert abs(adjusted_rand_index(truth, prediction)) < 0.05

    def test_single_cluster_prediction_zero(self, truth):
        assert adjusted_rand_index(truth, np.zeros_like(truth)) == pytest.approx(0.0)

    def test_matches_known_values(self):
        # Classic textbook example: splitting one true cluster into two.
        assert adjusted_rand_index([0, 0, 1, 1], [0, 0, 1, 2]) == pytest.approx(0.5714, abs=1e-3)
        # Crossing partition carries no adjusted agreement.
        assert adjusted_rand_index([0, 0, 1, 1], [0, 0, 0, 1]) == pytest.approx(0.0, abs=1e-12)


class TestEvaluationMask:
    def test_mask_shape_and_content(self):
        mask = evaluation_mask(5, exclude=[1, 3])
        assert mask.tolist() == [True, False, True, False, True]

    def test_none_excludes_nothing(self):
        assert evaluation_mask(3).all()

    def test_duplicate_excludes_tolerated(self):
        mask = evaluation_mask(4, exclude=[2, 2])
        assert mask.tolist() == [True, True, False, True]
