"""Tests for cross-algorithm selection with CVCP (the paper's future-work extension)."""

import pytest

from repro.clustering import FOSCOpticsDend, MPCKMeans, SeededKMeans
from repro.constraints import build_constraint_pool, sample_labeled_objects
from repro.core import AlgorithmCandidate, CVCPAlgorithmSelector
from repro.datasets import make_two_moons
from repro.evaluation import overall_f_measure


@pytest.fixture()
def side_information(blobs_dataset):
    return sample_labeled_objects(blobs_dataset.y, 0.2, random_state=0)


class TestCVCPAlgorithmSelector:
    def test_mapping_interface(self, blobs_dataset, side_information):
        selector = CVCPAlgorithmSelector(
            {
                "fosc": (FOSCOpticsDend(), [3, 5, 8]),
                "mpck": (MPCKMeans(random_state=0, n_init=1, max_iter=10), [2, 3, 4]),
            },
            n_folds=3,
            random_state=0,
        )
        selector.fit(blobs_dataset.X, labeled_objects=side_information)
        assert selector.best_algorithm_ in {"fosc", "mpck"}
        assert selector.best_score_ > 0.5
        assert hasattr(selector, "labels_")
        ranking = selector.result_.ranking()
        assert len(ranking) == 2
        assert ranking[0][2] >= ranking[1][2]

    def test_candidate_dataclass_interface(self, blobs_dataset, side_information):
        candidates = [
            AlgorithmCandidate("seeded-kmeans", SeededKMeans(random_state=0), [2, 3, 4]),
            AlgorithmCandidate("fosc", FOSCOpticsDend(), [3, 6]),
        ]
        selector = CVCPAlgorithmSelector(candidates, n_folds=3, random_state=1)
        selector.fit(blobs_dataset.X, labeled_objects=side_information)
        assert set(selector.result_.per_algorithm) == {"seeded-kmeans", "fosc"}

    def test_constraint_scenario(self, blobs_dataset):
        pool = build_constraint_pool(blobs_dataset.y, fraction_per_class=0.2, random_state=0)
        selector = CVCPAlgorithmSelector(
            {"fosc": (FOSCOpticsDend(), [3, 5]),
             "mpck": (MPCKMeans(random_state=0, n_init=1, max_iter=10), [2, 3, 4])},
            n_folds=3, random_state=0,
        )
        selector.fit(blobs_dataset.X, constraints=pool)
        assert selector.best_algorithm_ in {"fosc", "mpck"}

    def test_prefers_density_algorithm_on_moons(self):
        """On non-convex data the density-based candidate should win."""
        data = make_two_moons(220, noise=0.06, random_state=2)
        side = sample_labeled_objects(data.y, 0.15, random_state=2)
        selector = CVCPAlgorithmSelector(
            {
                "fosc": (FOSCOpticsDend(), [5, 8, 12]),
                "mpck": (MPCKMeans(random_state=0, n_init=1, max_iter=15), [2, 3, 4]),
            },
            n_folds=4,
            random_state=2,
        )
        selector.fit(data.X, labeled_objects=side)
        assert selector.best_algorithm_ == "fosc"
        quality = overall_f_measure(data.y, selector.labels_, exclude=side.keys())
        assert quality > 0.85

    def test_refit_disabled(self, blobs_dataset, side_information):
        selector = CVCPAlgorithmSelector(
            {"fosc": (FOSCOpticsDend(), [3, 5])}, n_folds=3, refit=False, random_state=0
        )
        selector.fit(blobs_dataset.X, labeled_objects=side_information)
        assert not hasattr(selector, "labels_")
        assert selector.best_algorithm_ == "fosc"

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            CVCPAlgorithmSelector([
                AlgorithmCandidate("a", FOSCOpticsDend(), [3]),
                AlgorithmCandidate("a", MPCKMeans(), [2]),
            ])

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            CVCPAlgorithmSelector({})
