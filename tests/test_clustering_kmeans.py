"""Unit tests for plain k-means and k-means++ seeding."""

import numpy as np
import pytest

from repro.clustering import KMeans, kmeans_plus_plus_init
from repro.evaluation import adjusted_rand_index


class TestKMeansPlusPlus:
    def test_number_and_shape_of_centers(self, blobs_dataset, rng):
        centers = kmeans_plus_plus_init(blobs_dataset.X, 3, np.random.default_rng(0))
        assert centers.shape == (3, blobs_dataset.n_features)

    def test_centers_are_data_points(self, blobs_dataset):
        centers = kmeans_plus_plus_init(blobs_dataset.X, 4, np.random.default_rng(1))
        for center in centers:
            assert any(np.allclose(center, point) for point in blobs_dataset.X)

    def test_duplicate_points_handled(self):
        X = np.zeros((10, 2))
        centers = kmeans_plus_plus_init(X, 3, np.random.default_rng(0))
        assert centers.shape == (3, 2)

    def test_too_many_clusters(self):
        with pytest.raises(ValueError):
            kmeans_plus_plus_init(np.zeros((2, 2)), 3, np.random.default_rng(0))


class TestKMeans:
    def test_recovers_separated_blobs(self, blobs_dataset):
        model = KMeans(n_clusters=3, random_state=0).fit(blobs_dataset.X)
        assert adjusted_rand_index(blobs_dataset.y, model.labels_) > 0.95

    def test_labels_shape_and_range(self, blobs_dataset):
        model = KMeans(n_clusters=4, random_state=0).fit(blobs_dataset.X)
        assert model.labels_.shape == (blobs_dataset.n_samples,)
        assert set(np.unique(model.labels_)) <= {0, 1, 2, 3}
        assert model.n_clusters_ <= 4

    def test_inertia_decreases_with_more_clusters(self, blobs_dataset):
        inertia_2 = KMeans(n_clusters=2, random_state=0).fit(blobs_dataset.X).inertia_
        inertia_5 = KMeans(n_clusters=5, random_state=0).fit(blobs_dataset.X).inertia_
        assert inertia_5 < inertia_2

    def test_predict_assigns_to_nearest_center(self, blobs_dataset):
        model = KMeans(n_clusters=3, random_state=0).fit(blobs_dataset.X)
        predictions = model.predict(blobs_dataset.X)
        assert (predictions == model.labels_).mean() > 0.99

    def test_reproducible_with_seed(self, blobs_dataset):
        first = KMeans(n_clusters=3, random_state=5).fit(blobs_dataset.X)
        second = KMeans(n_clusters=3, random_state=5).fit(blobs_dataset.X)
        assert (first.labels_ == second.labels_).all()

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7])
    def test_first_step_is_never_converged(self, wide_blobs_dataset, k):
        # The first step has no finite previous inertia to converge against
        # (inf - inertia <= tol * inf holds), so it must never stop the fit.
        model = KMeans(n_clusters=k, random_state=0).fit(wide_blobs_dataset.X)
        assert model.n_iter_ > 1

    def test_single_cluster(self, blobs_dataset):
        model = KMeans(n_clusters=1, random_state=0).fit(blobs_dataset.X)
        assert model.n_clusters_ == 1
        assert (model.labels_ == 0).all()

    def test_n_clusters_equal_n_samples(self):
        X = np.arange(10, dtype=float).reshape(5, 2) * 10
        model = KMeans(n_clusters=5, random_state=0, n_init=2).fit(X)
        assert model.n_clusters_ == 5
        assert model.inertia_ == pytest.approx(0.0, abs=1e-9)

    def test_too_many_clusters_raises(self):
        with pytest.raises(ValueError):
            KMeans(n_clusters=10).fit(np.zeros((4, 2)))

    def test_predict_before_fit_raises(self):
        with pytest.raises(AttributeError):
            KMeans(n_clusters=2).predict(np.zeros((3, 2)))

    def test_get_set_params_and_clone(self):
        model = KMeans(n_clusters=3, max_iter=50)
        params = model.get_params()
        assert params["n_clusters"] == 3 and params["max_iter"] == 50
        clone = model.clone(n_clusters=7)
        assert clone.n_clusters == 7
        assert model.n_clusters == 3
        with pytest.raises(ValueError):
            model.set_params(bogus=1)

    def test_ignores_constraints_argument(self, blobs_dataset, simple_constraints):
        model = KMeans(n_clusters=3, random_state=0)
        model.fit(blobs_dataset.X, constraints=simple_constraints)
        assert hasattr(model, "labels_")
