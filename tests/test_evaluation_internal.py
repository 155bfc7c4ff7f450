"""Unit tests for internal evaluation measures (Silhouette & friends)."""

import numpy as np
import pytest

from repro.evaluation import silhouette_samples, silhouette_score


@pytest.fixture()
def two_tight_clusters():
    rng = np.random.default_rng(0)
    X = np.vstack([
        rng.normal(0.0, 0.05, size=(20, 2)),
        rng.normal(10.0, 0.05, size=(20, 2)),
    ])
    labels = np.repeat([0, 1], 20)
    return X, labels


class TestSilhouette:
    def test_well_separated_clusters_score_high(self, two_tight_clusters):
        X, labels = two_tight_clusters
        assert silhouette_score(X, labels) > 0.95

    def test_bad_partition_scores_lower(self, two_tight_clusters):
        X, labels = two_tight_clusters
        rng = np.random.default_rng(1)
        random_labels = rng.integers(0, 2, size=labels.size)
        assert silhouette_score(X, random_labels) < silhouette_score(X, labels)

    def test_single_cluster_returns_zero(self, two_tight_clusters):
        X, _ = two_tight_clusters
        assert silhouette_score(X, np.zeros(X.shape[0], dtype=int)) == 0.0

    def test_noise_objects_get_zero_and_are_ignored(self, two_tight_clusters):
        X, labels = two_tight_clusters
        noisy = labels.copy()
        noisy[:3] = -1
        samples = silhouette_samples(X, noisy)
        assert np.allclose(samples[:3], 0.0)
        assert silhouette_score(X, noisy) > 0.9

    def test_samples_bounded(self, blobs_dataset):
        samples = silhouette_samples(blobs_dataset.X, blobs_dataset.y)
        assert (samples >= -1.0).all() and (samples <= 1.0).all()

    def test_singleton_cluster_gets_zero(self):
        X = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0]])
        labels = np.array([0, 0, 1])
        samples = silhouette_samples(X, labels)
        assert samples[2] == 0.0

    def test_correct_k_scores_best_on_blobs(self, blobs_dataset):
        """Silhouette peaks at the true number of blobs for k-means labels."""
        from repro.clustering import KMeans

        scores = {}
        for k in (2, 3, 4, 5):
            labels = KMeans(n_clusters=k, random_state=0).fit(blobs_dataset.X).labels_
            scores[k] = silhouette_score(blobs_dataset.X, labels)
        assert max(scores, key=scores.get) == 3


class TestSilhouetteInfiniteDistances:
    """Precomputed ``+inf`` distances score the limit of ``(b - a) / max(a, b)``."""

    INF = np.inf

    def test_infinite_b_scores_one(self):
        D = np.array([
            [0.0, 1.0, self.INF, self.INF],
            [1.0, 0.0, self.INF, self.INF],
            [self.INF, self.INF, 0.0, 2.0],
            [self.INF, self.INF, 2.0, 0.0],
        ])
        labels = [0, 0, 1, 1]
        np.testing.assert_array_equal(
            silhouette_samples(D, labels, metric="precomputed"), [1.0, 1.0, 1.0, 1.0]
        )
        assert silhouette_score(D, labels, metric="precomputed") == 1.0

    def test_infinite_a_scores_minus_one(self):
        # Objects 0 and 1 share a cluster at infinite distance; b is 2 and 3.
        # Objects 2 and 3: a = 1, b = (2 + 3) / 2 = 2.5, width (2.5 - 1) / 2.5.
        D = np.array([
            [0.0, self.INF, 2.0, 2.0],
            [self.INF, 0.0, 3.0, 3.0],
            [2.0, 3.0, 0.0, 1.0],
            [2.0, 3.0, 1.0, 0.0],
        ])
        samples = silhouette_samples(D, [0, 0, 1, 1], metric="precomputed")
        np.testing.assert_array_equal(samples, [-1.0, -1.0, 0.6, 0.6])

    def test_both_infinite_scores_zero(self):
        # Object 0: a = b = inf -> 0.  Object 1: a = inf, b = 4 -> -1.
        # Objects 2 and 3: a = 1, b = (inf + 4) / 2 = inf -> 1.
        D = np.array([
            [0.0, self.INF, self.INF, self.INF],
            [self.INF, 0.0, 4.0, 4.0],
            [self.INF, 4.0, 0.0, 1.0],
            [self.INF, 4.0, 1.0, 0.0],
        ])
        labels = [0, 0, 1, 1]
        samples = silhouette_samples(D, labels, metric="precomputed")
        np.testing.assert_array_equal(samples, [0.0, -1.0, 1.0, 1.0])
        assert silhouette_score(D, labels, metric="precomputed") == 0.25
