"""Unit tests for the clusterer protocol and result containers."""

import numpy as np
import pytest

from repro.clustering import KMeans, MPCKMeans
from repro.clustering.base import BaseClusterer, ClusteringResult


class TestClusteringResult:
    def test_from_labels_counts_clusters_and_noise(self):
        result = ClusteringResult.from_labels(np.array([0, 0, 1, -1, 2, -1]))
        assert result.n_clusters == 3
        assert result.n_noise == 2
        assert result.noise_mask.tolist() == [False, False, False, True, False, True]

    def test_metadata_defaults(self):
        result = ClusteringResult.from_labels(np.array([0, 1]), params={"k": 2})
        assert result.params == {"k": 2}
        assert result.meta == {}

    def test_result_property_of_fitted_estimator(self, blobs_dataset):
        model = KMeans(n_clusters=3, random_state=0).fit(blobs_dataset.X)
        result = model.result_
        assert result.n_clusters == 3
        assert result.params["n_clusters"] == 3
        assert result.labels.shape == (blobs_dataset.n_samples,)

    def test_result_before_fit_raises(self):
        with pytest.raises(AttributeError):
            _ = KMeans(n_clusters=2).result_
        with pytest.raises(AttributeError):
            _ = KMeans(n_clusters=2).n_clusters_


class TestBaseClustererProtocol:
    def test_fit_is_abstract(self):
        with pytest.raises(NotImplementedError):
            BaseClusterer().fit(np.zeros((3, 2)))

    def test_fit_predict_delegates_to_fit(self, blobs_dataset):
        labels = KMeans(n_clusters=3, random_state=0).fit_predict(blobs_dataset.X)
        assert labels.shape == (blobs_dataset.n_samples,)

    def test_get_params_covers_all_constructor_arguments(self):
        params = MPCKMeans(n_clusters=4, constraint_weight=2.0).get_params()
        assert params["n_clusters"] == 4
        assert params["constraint_weight"] == 2.0
        assert set(params) >= {"n_clusters", "constraint_weight", "learn_metrics",
                               "n_init", "max_iter", "tol", "random_state"}

    def test_clone_is_deep_and_unfitted(self, blobs_dataset):
        model = KMeans(n_clusters=3, random_state=0).fit(blobs_dataset.X)
        clone = model.clone()
        assert not hasattr(clone, "labels_")
        assert clone.get_params() == model.get_params()

    def test_repr_contains_parameters(self):
        assert "n_clusters=7" in repr(KMeans(n_clusters=7))
