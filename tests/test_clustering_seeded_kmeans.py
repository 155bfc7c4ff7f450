"""Unit tests for Seeded-KMeans and Constrained-KMeans."""

import numpy as np
import pytest

from repro.clustering import ConstrainedKMeans, SeededKMeans
from repro.clustering.distances import euclidean_distances
from repro.constraints import ConstraintSet, constraints_from_labels, must_link
from repro.evaluation import adjusted_rand_index


@pytest.fixture()
def seeds(blobs_dataset, rng):
    indices = rng.choice(blobs_dataset.n_samples, 12, replace=False)
    return {int(i): int(blobs_dataset.y[i]) for i in indices}


class TestSeededKMeans:
    def test_without_seeds_behaves_like_kmeans(self, blobs_dataset):
        model = SeededKMeans(n_clusters=3, random_state=0).fit(blobs_dataset.X)
        assert adjusted_rand_index(blobs_dataset.y, model.labels_) > 0.9

    def test_seeds_guide_initialisation(self, blobs_dataset, seeds):
        model = SeededKMeans(n_clusters=3, random_state=0)
        model.fit(blobs_dataset.X, seed_labels=seeds)
        assert adjusted_rand_index(blobs_dataset.y, model.labels_) > 0.9
        assert model.cluster_centers_.shape == (3, blobs_dataset.n_features)

    def test_constraints_used_through_must_link_components(self, blobs_dataset):
        constraints = ConstraintSet([must_link(0, 1), must_link(20, 21), must_link(40, 41)])
        model = SeededKMeans(n_clusters=3, random_state=0)
        model.fit(blobs_dataset.X, constraints=constraints)
        assert model.labels_.shape == (blobs_dataset.n_samples,)

    def test_more_seed_classes_than_clusters(self, blobs_dataset, seeds):
        model = SeededKMeans(n_clusters=2, random_state=0)
        model.fit(blobs_dataset.X, seed_labels=seeds)
        assert model.n_clusters_ <= 2

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
    def test_converges_to_a_lloyd_fixed_point(self, wide_blobs_dataset, k):
        """The centres are the means of their final clusters, which are the
        nearest-centre assignment: Lloyd's stopped at convergence, not after
        the first step."""
        X = wide_blobs_dataset.X
        model = SeededKMeans(n_clusters=k, random_state=0).fit(X)
        means = np.vstack([X[model.labels_ == h].mean(axis=0) for h in range(k)])
        np.testing.assert_array_equal(model.cluster_centers_, means)
        nearest = euclidean_distances(X, model.cluster_centers_, squared=True).argmin(axis=1)
        np.testing.assert_array_equal(model.labels_, nearest)

    def test_invalid_n_clusters(self, blobs_dataset):
        with pytest.raises(ValueError):
            SeededKMeans(n_clusters=1000).fit(blobs_dataset.X)

    def test_tuned_parameter(self):
        assert SeededKMeans.tuned_parameter == "n_clusters"


class TestConstrainedKMeans:
    def test_seeds_are_clamped(self, blobs_dataset, seeds):
        model = ConstrainedKMeans(n_clusters=3, random_state=0)
        model.fit(blobs_dataset.X, seed_labels=seeds)
        # Every seed of one class must share a cluster with the other seeds
        # of that class (the clamp keeps them in their seed cluster).
        by_class: dict[int, list[int]] = {}
        for index, label in seeds.items():
            by_class.setdefault(label, []).append(index)
        for members in by_class.values():
            assert len({int(model.labels_[i]) for i in members}) == 1

    def test_clone_preserves_subclass(self):
        model = ConstrainedKMeans(n_clusters=4)
        clone = model.clone(n_clusters=2)
        assert isinstance(clone, ConstrainedKMeans)
        assert clone.n_clusters == 2
        assert clone.clamp_seeds is True

    def test_works_inside_cvcp_label_path(self, blobs_dataset, seeds):
        from repro.core import CVCP

        search = CVCP(ConstrainedKMeans(random_state=0), [2, 3, 4], n_folds=3,
                      use_labels_directly=True, random_state=0)
        search.fit(blobs_dataset.X, labeled_objects=seeds)
        assert search.best_params_["n_clusters"] in [2, 3, 4]

    def test_agreement_with_seeded_variant_on_clean_seeds(self, blobs_dataset, seeds):
        constraints = constraints_from_labels(seeds)
        assert constraints.n_must_link > 0  # sanity: the seeds span classes
        seeded = SeededKMeans(n_clusters=3, random_state=0).fit(
            blobs_dataset.X, seed_labels=seeds
        )
        clamped = ConstrainedKMeans(n_clusters=3, random_state=0).fit(
            blobs_dataset.X, seed_labels=seeds
        )
        assert adjusted_rand_index(seeded.labels_, clamped.labels_) > 0.9
