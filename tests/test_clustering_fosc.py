"""Unit tests for FOSC and FOSC-OPTICSDend."""

import numpy as np
import pytest

from repro.clustering import FOSC, FOSCOpticsDend
from repro.clustering.hierarchy import build_tree_structure
from repro.constraints import ConstraintSet, cannot_link, constraints_from_labels, must_link
from repro.evaluation import adjusted_rand_index, overall_f_measure


class TestFOSCUnsupervised:
    def test_unsupervised_extraction_recovers_blobs(self, blobs_dataset):
        structure = build_tree_structure(blobs_dataset.X, 4)
        selection = FOSC().extract(structure.condensed_tree)
        assert not selection.used_constraints
        assert adjusted_rand_index(blobs_dataset.y, selection.labels) > 0.9

    def test_selection_is_an_antichain(self, blobs_dataset):
        tree = build_tree_structure(blobs_dataset.X, 4).condensed_tree
        selection = FOSC().extract(tree)
        selected = set(selection.selected_clusters)
        for cluster_id in selected:
            parent = tree.clusters[cluster_id].parent
            while parent != -1:
                assert parent not in selected, "an ancestor of a selected cluster is also selected"
                parent = tree.clusters[parent].parent

    def test_moons_need_density_clustering(self, moons_dataset):
        model = FOSCOpticsDend(min_pts=8).fit(moons_dataset.X)
        assert adjusted_rand_index(moons_dataset.y, model.labels_) > 0.8

    def test_negative_stability_weight_rejected(self):
        with pytest.raises(ValueError):
            FOSC(stability_weight=-0.1)


class TestFOSCSemiSupervised:
    def test_constraints_drive_granularity(self, blobs_dataset):
        """Cannot-links between the true clusters push FOSC to keep them apart."""
        y = blobs_dataset.y
        constraints = ConstraintSet()
        # A few must-links inside each class, cannot-links across classes.
        constraints.add(must_link(0, 5))
        constraints.add(must_link(20, 25))
        constraints.add(must_link(40, 45))
        constraints.add(cannot_link(0, 20))
        constraints.add(cannot_link(20, 40))
        constraints.add(cannot_link(0, 40))
        model = FOSCOpticsDend(min_pts=4).fit(blobs_dataset.X, constraints=constraints)
        assert model.n_clusters_ >= 3
        assert constraints.satisfied_by(model.labels_) >= 5
        assert adjusted_rand_index(y, model.labels_) > 0.8

    def test_seed_labels_equivalent_to_constraints(self, blobs_dataset):
        seed_labels = {0: 0, 5: 0, 20: 1, 25: 1, 40: 2, 45: 2}
        via_labels = FOSCOpticsDend(min_pts=4).fit(blobs_dataset.X, seed_labels=seed_labels)
        via_constraints = FOSCOpticsDend(min_pts=4).fit(
            blobs_dataset.X, constraints=constraints_from_labels(seed_labels)
        )
        assert (via_labels.labels_ == via_constraints.labels_).all()

    def test_selection_metadata_exposed(self, blobs_dataset):
        model = FOSCOpticsDend(min_pts=4).fit(
            blobs_dataset.X, constraints=ConstraintSet([cannot_link(0, 20)])
        )
        assert model.selection_.used_constraints
        assert model.selection_.objective >= 0.0
        assert len(model.selection_.selected_clusters) == model.n_clusters_ or (
            model.selection_.selected_clusters == [0]
        )

    def test_noise_labelled_minus_one(self, iris_like_dataset):
        model = FOSCOpticsDend(min_pts=6).fit(iris_like_dataset.X)
        labels = model.labels_
        assert labels.min() >= -1
        assert set(np.unique(labels[labels >= 0])) == set(range(model.n_clusters_))

    def test_constraint_quality_on_iris_like(self, iris_like_dataset, rng):
        data = iris_like_dataset
        labeled = {int(i): int(data.y[i]) for i in rng.choice(data.n_samples, 20, replace=False)}
        constraints = constraints_from_labels(labeled)
        model = FOSCOpticsDend(min_pts=6).fit(data.X, constraints=constraints)
        score = overall_f_measure(data.y, model.labels_, exclude=labeled.keys())
        assert score > 0.5

    def test_min_pts_larger_than_dataset_is_capped(self):
        X = np.random.default_rng(0).normal(size=(10, 2))
        model = FOSCOpticsDend(min_pts=50).fit(X)
        assert model.labels_.shape == (10,)

    def test_invalid_min_pts(self, blobs_dataset):
        with pytest.raises(ValueError):
            FOSCOpticsDend(min_pts=0).fit(blobs_dataset.X)

    def test_tuned_parameter_declaration(self):
        assert FOSCOpticsDend.tuned_parameter == "min_pts"

    def test_clone_for_parameter_sweep(self):
        template = FOSCOpticsDend(min_pts=5, stability_weight=0.01)
        clone = template.clone(min_pts=12)
        assert clone.min_pts == 12
        assert clone.stability_weight == 0.01
        assert template.min_pts == 5


class TestFOSCOpticsDendEstimator:
    @pytest.mark.parametrize("min_pts", [3, 5, 8])
    def test_recovers_separated_blobs(self, blobs_dataset, min_pts):
        model = FOSCOpticsDend(min_pts=min_pts).fit(blobs_dataset.X)
        assert adjusted_rand_index(blobs_dataset.y, model.labels_) > 0.9

    def test_labels_shape_and_cluster_count(self, blobs_dataset):
        model = FOSCOpticsDend(min_pts=4).fit(blobs_dataset.X)
        assert model.labels_.shape == (blobs_dataset.n_samples,)
        assert model.n_clusters_ == 3
        assert model.result_.n_clusters == 3

    def test_fit_predict_returns_the_fitted_labels(self, blobs_dataset):
        model = FOSCOpticsDend(min_pts=4)
        labels = model.fit_predict(blobs_dataset.X)
        np.testing.assert_array_equal(labels, model.labels_)

    def test_not_fitted_errors(self):
        model = FOSCOpticsDend(min_pts=3)
        with pytest.raises(AttributeError):
            model.n_clusters_
        with pytest.raises(AttributeError):
            model.result_

    def test_all_duplicate_points_form_one_cluster(self):
        model = FOSCOpticsDend(min_pts=3).fit(np.zeros((7, 2)))
        assert (model.labels_ == 0).all()

    def test_far_apart_groups_never_share_a_label(self):
        X = np.array([[0.0], [0.1], [0.2], [50.0], [50.1], [50.2]])
        labels = FOSCOpticsDend(min_pts=2).fit(X).labels_
        assert len(set(labels[:3].tolist())) == 1 and labels[0] >= 0
        assert len(set(labels[3:].tolist())) == 1 and labels[3] >= 0
        assert labels[0] != labels[3]
