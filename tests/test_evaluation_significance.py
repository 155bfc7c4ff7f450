"""Unit tests for the paired t-test helper."""

import numpy as np
import pytest
from scipy import stats

from repro.evaluation import paired_t_test


class TestPairedTTest:
    def test_matches_scipy(self):
        rng = np.random.default_rng(0)
        first = rng.normal(0.7, 0.05, size=30)
        second = first - rng.normal(0.05, 0.02, size=30)
        ours = paired_t_test(first, second)
        reference = stats.ttest_rel(first, second)
        assert ours.statistic == pytest.approx(float(reference.statistic))
        assert ours.p_value == pytest.approx(float(reference.pvalue))

    def test_clear_difference_is_significant(self):
        first = np.array([0.9, 0.85, 0.92, 0.88, 0.91])
        second = np.array([0.5, 0.52, 0.48, 0.51, 0.49])
        result = paired_t_test(first, second)
        assert result.significant()
        assert result.mean_difference > 0

    def test_identical_samples_not_significant(self):
        values = np.array([0.5, 0.6, 0.7])
        result = paired_t_test(values, values)
        assert result.p_value == 1.0
        assert not result.significant()

    def test_constant_shift_is_infinitely_significant(self):
        first = np.array([0.5, 0.6, 0.7])
        result = paired_t_test(first + 0.1, first)
        assert result.p_value == 0.0
        assert result.significant()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0, 2.0], [1.0])

    def test_too_few_pairs_rejected(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0], [2.0])
