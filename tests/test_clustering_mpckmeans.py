"""Unit tests for MPCK-Means (metric pairwise constrained k-means)."""

import numpy as np
import pytest

from repro.clustering import MPCKMeans
from repro.constraints import ConstraintSet, cannot_link, constraints_from_labels, must_link
from repro.evaluation import adjusted_rand_index


class TestMPCKMeans:
    def test_unconstrained_recovers_blobs(self, blobs_dataset):
        model = MPCKMeans(n_clusters=3, random_state=0).fit(blobs_dataset.X)
        assert adjusted_rand_index(blobs_dataset.y, model.labels_) > 0.9

    def test_fitted_attributes(self, blobs_dataset):
        model = MPCKMeans(n_clusters=3, random_state=0).fit(blobs_dataset.X)
        assert model.labels_.shape == (blobs_dataset.n_samples,)
        assert model.cluster_centers_.shape == (3, blobs_dataset.n_features)
        assert model.metric_weights_.shape == (3, blobs_dataset.n_features)
        assert (model.metric_weights_ > 0).all()
        assert np.isfinite(model.objective_)
        assert model.n_iter_ >= 1

    def test_constraints_improve_agreement_with_ground_truth(self, iris_like_dataset, rng):
        data = iris_like_dataset
        labeled = {int(i): int(data.y[i]) for i in rng.choice(data.n_samples, 30, replace=False)}
        constraints = constraints_from_labels(labeled)

        base = MPCKMeans(n_clusters=3, random_state=0, n_init=2).fit(data.X)
        guided = MPCKMeans(n_clusters=3, random_state=0, n_init=2).fit(data.X, constraints)
        base_ari = adjusted_rand_index(data.y, base.labels_)
        guided_ari = adjusted_rand_index(data.y, guided.labels_)
        assert guided_ari >= base_ari - 0.05  # never much worse, usually better

    def test_constraint_satisfaction_beats_unconstrained(self, iris_like_dataset, rng):
        data = iris_like_dataset
        labeled = {int(i): int(data.y[i]) for i in rng.choice(data.n_samples, 24, replace=False)}
        constraints = constraints_from_labels(labeled)
        base = MPCKMeans(n_clusters=3, random_state=1, n_init=2).fit(data.X)
        guided = MPCKMeans(n_clusters=3, random_state=1, n_init=2).fit(data.X, constraints)
        assert constraints.satisfied_by(guided.labels_) >= constraints.satisfied_by(base.labels_)

    def test_must_link_pull_together(self):
        # Two groups; a must-link across them forces the pair into one cluster
        # when the penalty weight is large.
        X = np.vstack([
            np.random.default_rng(0).normal(0.0, 0.1, size=(10, 2)),
            np.random.default_rng(1).normal(5.0, 0.1, size=(10, 2)),
        ])
        constraints = ConstraintSet([must_link(0, 10)])
        model = MPCKMeans(n_clusters=2, constraint_weight=200.0, random_state=0).fit(X, constraints)
        assert model.labels_[0] == model.labels_[10]

    def test_cannot_link_pushes_apart(self):
        X = np.vstack([
            np.random.default_rng(0).normal(0.0, 0.05, size=(10, 2)),
            np.random.default_rng(1).normal(0.4, 0.05, size=(10, 2)),
        ])
        constraints = ConstraintSet([cannot_link(0, 10)])
        model = MPCKMeans(n_clusters=2, constraint_weight=50.0, random_state=0).fit(X, constraints)
        assert model.labels_[0] != model.labels_[10]

    def test_seed_labels_accepted(self, blobs_dataset):
        model = MPCKMeans(n_clusters=3, random_state=0)
        model.fit(blobs_dataset.X, seed_labels={0: 0, 20: 1, 40: 2})
        assert model.labels_.shape == (blobs_dataset.n_samples,)

    def test_pck_means_mode_without_metric_learning(self, blobs_dataset):
        model = MPCKMeans(n_clusters=3, learn_metrics=False, random_state=0).fit(blobs_dataset.X)
        assert np.allclose(model.metric_weights_, 1.0)

    def test_reproducible_with_seed(self, blobs_dataset):
        first = MPCKMeans(n_clusters=3, random_state=9).fit(blobs_dataset.X)
        second = MPCKMeans(n_clusters=3, random_state=9).fit(blobs_dataset.X)
        assert (first.labels_ == second.labels_).all()

    def test_invalid_parameters(self, blobs_dataset):
        with pytest.raises(ValueError):
            MPCKMeans(n_clusters=0).fit(blobs_dataset.X)
        with pytest.raises(ValueError):
            MPCKMeans(n_clusters=100).fit(blobs_dataset.X)
        with pytest.raises(ValueError):
            MPCKMeans(n_clusters=2, constraint_weight=-1.0).fit(blobs_dataset.X)

    def test_tuned_parameter_declaration(self):
        assert MPCKMeans.tuned_parameter == "n_clusters"


@pytest.mark.xfail(
    strict=True,
    reason=(
        "MPCKMeans._single_run compares its first objective against an infinite "
        "previous one (inf - objective <= tol * inf), so every fit stops after one "
        "iteration. Fixing it changes every MPCK selection, so it waits for a change "
        "that may re-pin perfbench/digests.json (ROADMAP)."
    ),
)
def test_first_step_is_never_converged(wide_blobs_dataset):
    model = MPCKMeans(n_clusters=4, random_state=0).fit(wide_blobs_dataset.X)
    assert model.n_iter_ > 1
