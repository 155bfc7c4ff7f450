"""MPCK-Means with one iteration state against the estimator it replaced.

``repro.clustering.mpckmeans`` now computes the span and the closure's
squared pair differences once per fit, the point-centre distances,
``log_det`` and ``max_sq`` once per ``(centers, weights)``, and the
violated pairs once per labelling.  ``tests/mpck_oracle.py`` keeps the
estimator that recomputed them.  Every fitted attribute (``labels_``,
``cluster_centers_``, ``metric_weights_``, ``objective_``, ``n_iter_``) must
be equal byte for byte:

* at the default ``tol`` (one EM step) and at ``tol=0.0`` (multi-iteration
  fits), over ``max_iter`` 0, 1 and 10, ``n_init`` 1 and 3,
  ``learn_metrics`` on and off and ``constraint_weight`` 0, 1 and 2.5;
* for seed labels, constraints, must-only, cannot-only and empty sets,
  sets whose pairs stay violated, a fit that empties a cluster, and
  d = 1, 4, 9 and 130;
* through CVCP's fold scores and refit labels on every backend.

The count test pins the de-duplication itself: ``1 + k`` distance
evaluations per restart of ``k`` iterations, where the oracle made ``1 + 2k``.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

import mpck_oracle as oracle
from repro.clustering import MPCKMeans
from repro.constraints import (
    ConstraintSet,
    cannot_link,
    constraints_from_labels,
    must_link,
    sample_labeled_objects,
)
from repro.constraints.constraint import MUST_LINK
from repro.core import CVCP
from repro.core.executor import ExecutionSpec
from repro.datasets import make_blobs, make_iris_like

TOLS = [1e-5, 0.0]


def _dataset(n_features: int):
    if n_features == 4:
        return make_iris_like(random_state=0)
    sizes = [40, 30, 30] if n_features < 100 else [15, 15, 10]
    return make_blobs(sizes, n_features, center_spread=4.0, random_state=n_features)


def _side_information(kind: str, y: np.ndarray) -> dict:
    labeled = sample_labeled_objects(y, 0.2, random_state=0)
    constraints = constraints_from_labels(labeled)
    if kind == "seed_labels":
        return {"seed_labels": labeled}
    if kind == "constraints":
        return {"constraints": constraints}
    if kind == "must_only":
        return {"constraints": ConstraintSet([c for c in constraints if c.kind == MUST_LINK])}
    if kind == "cannot_only":
        return {"constraints": ConstraintSet([c for c in constraints if c.kind != MUST_LINK])}
    if kind == "empty_set":
        return {"constraints": ConstraintSet()}
    return {}


def assert_same_fit(new, old) -> None:
    for name in ("labels_", "cluster_centers_", "metric_weights_"):
        a, b = getattr(new, name), getattr(old, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
    assert type(new.objective_) is type(old.objective_) is float
    assert struct.pack("<d", new.objective_) == struct.pack("<d", old.objective_)
    assert new.n_iter_ == old.n_iter_


def fit_both(X, side: dict, **params):
    new = MPCKMeans(**params).fit(X, **side)
    old = oracle.MPCKMeans(**params).fit(X, **side)
    assert_same_fit(new, old)
    return new


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("learn_metrics", [True, False])
@pytest.mark.parametrize(
    "side", ["seed_labels", "constraints", "must_only", "cannot_only", "empty_set", "none"]
)
@pytest.mark.parametrize("n_features", [1, 4, 9, 130])
def test_side_information_and_dimensions(n_features, side, learn_metrics, tol):
    data = _dataset(n_features)
    for random_state in range(2):
        fit_both(
            data.X,
            _side_information(side, data.y),
            n_clusters=3,
            learn_metrics=learn_metrics,
            tol=tol,
            random_state=random_state,
        )


def _conflicting(y: np.ndarray) -> ConstraintSet:
    """Must-links across classes and a cannot-link 6-clique inside one class.

    Both fight the geometry, so the fits see violated pairs of both kinds:
    with three clusters at least three of the clique's pairs stay violated.
    """
    rng = np.random.default_rng(0)
    classes = np.unique(y)
    constraints = []
    for _ in range(6):
        a, b = rng.choice(classes, 2, replace=False)
        i = int(rng.choice(np.flatnonzero(y == a)))
        j = int(rng.choice(np.flatnonzero(y == b)))
        constraints.append(must_link(i, j))
    clique = rng.choice(np.flatnonzero(y == classes[0]), 6, replace=False).tolist()
    constraints += [cannot_link(i, j) for k, i in enumerate(clique) for j in clique[k + 1:]]
    return ConstraintSet(constraints)


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("learn_metrics", [True, False])
@pytest.mark.parametrize("constraint_weight", [0.25, 1.0, 2.5])
@pytest.mark.parametrize("n_features", [1, 4, 9, 130])
def test_violated_pairs(n_features, constraint_weight, learn_metrics, tol):
    data = _dataset(n_features)
    constraints = _conflicting(data.y)
    model = fit_both(
        data.X,
        {"constraints": constraints},
        n_clusters=3,
        constraint_weight=constraint_weight,
        learn_metrics=learn_metrics,
        tol=tol,
        random_state=0,
    )
    assert constraints.satisfied_by(model.labels_) < len(constraints)


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("constraint_weight", [0.0, 1.0, 2.5])
@pytest.mark.parametrize("n_init", [1, 3])
@pytest.mark.parametrize("max_iter", [0, 1, 10])
def test_iteration_and_restart_settings(max_iter, n_init, constraint_weight, tol):
    data = make_iris_like(random_state=0)
    side = _side_information("constraints", data.y)
    for n_clusters in (2, 3, 5):
        fit_both(
            data.X,
            side,
            n_clusters=n_clusters,
            n_init=n_init,
            max_iter=max_iter,
            constraint_weight=constraint_weight,
            tol=tol,
            random_state=3,
        )


def test_multi_iteration_fits_are_covered():
    data = make_iris_like(random_state=0)
    side = _side_information("constraints", data.y)
    model = fit_both(data.X, side, n_clusters=3, tol=0.0, max_iter=10, random_state=0)
    assert model.n_iter_ > 2


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("learn_metrics", [True, False])
def test_emptied_cluster(learn_metrics, tol):
    # Duplicated points make k-means++ fall back to uniform draws, so two
    # seeds coincide and one of them keeps no member.
    X = np.vstack([np.zeros((8, 2)), np.full((8, 2), 5.0), [[2.5, 2.4], [2.6, 2.5]]])
    side = {"constraints": ConstraintSet([cannot_link(0, 8), must_link(1, 16)])}
    model = fit_both(
        X, side, n_clusters=4, learn_metrics=learn_metrics, tol=tol, n_init=1, random_state=0
    )
    assert np.unique(model.labels_).size < 4


@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
@pytest.mark.parametrize("scenario", ["labels", "constraints"])
def test_cvcp_fold_scores_and_refit_labels(scenario, backend):
    data = make_iris_like(random_state=0)
    labeled = sample_labeled_objects(data.y, 0.2, random_state=1)
    side = (
        {"labeled_objects": labeled}
        if scenario == "labels"
        else {"constraints": constraints_from_labels(labeled)}
    )
    execution = ExecutionSpec(backend=backend, n_jobs=2)
    runs = [
        CVCP(estimator(tol=0.0, max_iter=5), [2, 3, 4], n_folds=3, random_state=0,
             execution=execution).fit(data.X, **side)
        for estimator in (MPCKMeans, oracle.MPCKMeans)
    ]
    new, old = runs
    assert [e.fold_scores for e in new.cv_results_.evaluations] == [
        e.fold_scores for e in old.cv_results_.evaluations
    ]
    assert new.best_params_ == old.best_params_
    assert_same_fit(new.best_estimator_, old.best_estimator_)


@pytest.mark.parametrize("tol, expected, oracle_expected", [(1e-5, 6, 9), (0.0, 15, 27)])
def test_distances_are_evaluated_once_per_model(monkeypatch, tol, expected, oracle_expected):
    data = make_iris_like(random_state=0)
    constraints = constraints_from_labels(sample_labeled_objects(data.y, 0.2, random_state=0))
    counts = {}
    for cls in (MPCKMeans, oracle.MPCKMeans):
        inner = cls._point_center_distances
        calls = []

        def counted(X, centers, weights, inner=inner, calls=calls):
            calls.append(1)
            return inner(X, centers, weights)

        monkeypatch.setattr(cls, "_point_center_distances", staticmethod(counted))
        cls(n_clusters=3, tol=tol, random_state=0).fit(data.X, constraints)
        counts[cls] = len(calls)
    assert counts == {oracle.MPCKMeans: oracle_expected, MPCKMeans: expected}
