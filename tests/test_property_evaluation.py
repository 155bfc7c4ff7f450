"""Property-based tests for the evaluation measures and scoring."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.constraints import constraints_from_labels
from repro.core import constraint_f_score
from repro.evaluation import (
    adjusted_rand_index,
    overall_f_measure,
)
from repro.evaluation.confusion import constraint_confusion, pair_confusion_matrix

settings.register_profile("repro-eval", max_examples=30, deadline=None)
settings.load_profile("repro-eval")


def label_arrays(min_size=4, max_size=40, max_label=4, allow_noise=False):
    low = -1 if allow_noise else 0
    return hnp.arrays(
        dtype=np.int64,
        shape=st.integers(min_value=min_size, max_value=max_size),
        elements=st.integers(min_value=low, max_value=max_label),
    )


@st.composite
def paired_labelings(draw, allow_noise_pred=True):
    n = draw(st.integers(min_value=4, max_value=40))
    truth = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 4)))
    prediction = draw(
        hnp.arrays(np.int64, n, elements=st.integers(-1 if allow_noise_pred else 0, 4))
    )
    return truth, prediction


class TestExternalMeasureProperties:
    @given(paired_labelings())
    def test_overall_f_bounded(self, pair):
        truth, prediction = pair
        assert 0.0 <= overall_f_measure(truth, prediction) <= 1.0

    @given(label_arrays())
    def test_overall_f_perfect_on_identity(self, labels):
        assert overall_f_measure(labels, labels) == pytest.approx(1.0)

    @given(label_arrays())
    def test_overall_f_invariant_to_label_permutation(self, labels):
        permuted = (labels + 3) % 5
        assert overall_f_measure(labels, permuted) == pytest.approx(1.0)

    @given(paired_labelings())
    def test_ari_symmetric_in_arguments_without_noise(self, pair):
        truth, prediction = pair
        prediction = np.abs(prediction)  # ARI symmetry holds for plain partitions
        assert adjusted_rand_index(truth, prediction) == adjusted_rand_index(prediction, truth)

    @given(paired_labelings())
    def test_ari_at_most_one(self, pair):
        truth, prediction = pair
        assert adjusted_rand_index(truth, prediction) <= 1.0 + 1e-12

    @given(paired_labelings())
    def test_pair_confusion_sums_to_all_pairs(self, pair):
        truth, prediction = pair
        counts = pair_confusion_matrix(truth, prediction)
        n = truth.shape[0]
        assert sum(counts) == n * (n - 1) // 2
        assert all(count >= 0 for count in counts)


@st.composite
def labelling_and_partition(draw):
    n = draw(st.integers(min_value=4, max_value=25))
    truth = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 3)))
    revealed = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n, unique=True))
    partition = draw(hnp.arrays(np.int64, n, elements=st.integers(-1, 3)))
    labelling = {int(i): int(truth[i]) for i in revealed}
    return labelling, partition


class TestConstraintScoringProperties:
    @given(labelling_and_partition())
    def test_score_bounded(self, case):
        labelling, partition = case
        constraints = constraints_from_labels(labelling)
        score = constraint_f_score(partition, constraints)
        assert 0.0 <= score <= 1.0

    @given(labelling_and_partition())
    def test_ground_truth_partition_scores_one(self, case):
        labelling, _ = case
        constraints = constraints_from_labels(labelling)
        if not len(constraints):
            return
        n = max(labelling) + 1
        truth_partition = np.zeros(n, dtype=np.int64)
        for index, label in labelling.items():
            truth_partition[index] = label
        has_must = constraints.n_must_link > 0
        has_cannot = constraints.n_cannot_link > 0
        score = constraint_f_score(truth_partition, constraints)
        if has_must or has_cannot:
            assert score == 1.0

    @given(labelling_and_partition())
    def test_confusion_counts_add_up(self, case):
        labelling, partition = case
        constraints = constraints_from_labels(labelling)
        confusion = constraint_confusion(partition, constraints)
        assert confusion.n_constraints == len(constraints)
        assert confusion.n_must_link == constraints.n_must_link
        assert confusion.n_cannot_link == constraints.n_cannot_link
