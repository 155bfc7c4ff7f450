"""Plain k-means (Lloyd's algorithm) with k-means++ seeding.

This is the unsupervised substrate that both constrained variants
(:class:`~repro.clustering.copkmeans.COPKMeans` and
:class:`~repro.clustering.mpckmeans.MPCKMeans`) build on.  It is also used
directly by the Silhouette baseline of Section 4.3 through
:class:`~repro.clustering.mpckmeans.MPCKMeans` with an empty constraint set.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.base import BaseClusterer
from repro.clustering.distances import euclidean_distances
from repro.constraints.constraint import ConstraintSet
from repro.utils.rng import RandomStateLike, check_random_state
from repro.utils.validation import check_array_2d, check_positive_int


def kmeans_plus_plus_init(
    X: np.ndarray,
    n_clusters: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """k-means++ seeding (Arthur & Vassilvitskii, 2007).

    The first center is drawn uniformly; every subsequent center is drawn
    with probability proportional to the squared distance to the closest
    center chosen so far.

    Returns
    -------
    ndarray
        ``(n_clusters, d)`` array of initial centers.
    """
    X = np.asarray(X, dtype=np.float64)
    n_samples = X.shape[0]
    if n_clusters > n_samples:
        raise ValueError(f"n_clusters={n_clusters} exceeds the number of samples {n_samples}")

    centers = np.empty((n_clusters, X.shape[1]), dtype=np.float64)
    first = int(rng.integers(n_samples))
    centers[0] = X[first]
    closest_sq = euclidean_distances(X, centers[:1], squared=True).ravel()

    for position in range(1, n_clusters):
        total = closest_sq.sum()
        if total <= 0.0:
            # All remaining points coincide with chosen centers; fall back to
            # uniform sampling to keep the seeding well defined.
            index = int(rng.integers(n_samples))
        else:
            probabilities = closest_sq / total
            index = int(rng.choice(n_samples, p=probabilities))
        centers[position] = X[index]
        new_sq = euclidean_distances(X, centers[position:position + 1], squared=True).ravel()
        np.minimum(closest_sq, new_sq, out=closest_sq)
    return centers


def _assign(X: np.ndarray, centers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Assign every point to the nearest center; return (labels, sq distances)."""
    distances = euclidean_distances(X, centers, squared=True)
    labels = np.argmin(distances, axis=1)
    return labels, distances[np.arange(X.shape[0]), labels]


def _update_centers(
    X: np.ndarray,
    labels: np.ndarray,
    n_clusters: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Recompute centroids; re-seed empty clusters from the farthest points."""
    centers = np.empty((n_clusters, X.shape[1]), dtype=np.float64)
    counts = np.bincount(labels, minlength=n_clusters)
    for h in range(n_clusters):
        if counts[h] > 0:
            centers[h] = X[labels == h].mean(axis=0)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        # Re-seed each empty cluster at the point farthest from its current
        # center; this is the standard remedy and keeps k clusters alive.
        _, closest_sq = _assign(X, centers[counts > 0])
        order = np.argsort(closest_sq)[::-1]
        for rank, h in enumerate(empty):
            centers[h] = X[order[rank % order.size]]
    return centers


class KMeans(BaseClusterer):
    """Lloyd's k-means with k-means++ seeding and multiple restarts.

    Parameters
    ----------
    n_clusters:
        Number of clusters ``k``.
    n_init:
        Number of random restarts; the run with the lowest inertia wins.
    max_iter:
        Maximum Lloyd iterations per restart.
    tol:
        Relative tolerance on the decrease of inertia used to declare
        convergence.
    random_state:
        Seed or generator.

    Attributes
    ----------
    labels_:
        Cluster labels of the training data.
    cluster_centers_:
        ``(k, d)`` centroids.
    inertia_:
        Sum of squared distances to the assigned centroid.
    n_iter_:
        Iterations used by the best restart.
    """

    tuned_parameter = "n_clusters"

    def __init__(
        self,
        n_clusters: int = 3,
        *,
        n_init: int = 5,
        max_iter: int = 100,
        tol: float = 1e-6,
        random_state: RandomStateLike = None,
    ) -> None:
        self.n_clusters = n_clusters
        self.n_init = n_init
        self.max_iter = max_iter
        self.tol = tol
        self.random_state = random_state

    def fit(
        self,
        X: np.ndarray,
        constraints: ConstraintSet | None = None,
        seed_labels: dict[int, int] | None = None,
    ) -> "KMeans":
        """Cluster ``X``.  ``constraints`` and ``seed_labels`` are ignored."""
        X = check_array_2d(X)
        n_clusters = check_positive_int(self.n_clusters, name="n_clusters")
        check_positive_int(self.n_init, name="n_init")
        check_positive_int(self.max_iter, name="max_iter")
        if n_clusters > X.shape[0]:
            raise ValueError(
                f"n_clusters={n_clusters} exceeds the number of samples {X.shape[0]}"
            )
        rng = check_random_state(self.random_state)

        best_inertia = np.inf
        best_labels: np.ndarray | None = None
        best_centers: np.ndarray | None = None
        best_iterations = 0

        for _ in range(self.n_init):
            labels, centers, inertia, iterations = self._single_run(X, n_clusters, rng)
            if inertia < best_inertia:
                best_inertia = inertia
                best_labels = labels
                best_centers = centers
                best_iterations = iterations

        assert best_labels is not None and best_centers is not None
        self.labels_ = best_labels
        self.cluster_centers_ = best_centers
        self.inertia_ = float(best_inertia)
        self.n_iter_ = best_iterations
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Assign new points to the nearest learned centroid."""
        if not hasattr(self, "cluster_centers_"):
            raise AttributeError("KMeans has not been fitted yet")
        X = check_array_2d(X)
        labels, _ = _assign(X, self.cluster_centers_)
        return labels

    # ------------------------------------------------------------------
    def _single_run(
        self,
        X: np.ndarray,
        n_clusters: int,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray, float, int]:
        centers = kmeans_plus_plus_init(X, n_clusters, rng)
        previous_inertia = np.inf
        labels = np.zeros(X.shape[0], dtype=np.int64)
        iteration = 0
        for iteration in range(1, self.max_iter + 1):
            labels, closest_sq = _assign(X, centers)
            inertia = float(closest_sq.sum())
            centers = _update_centers(X, labels, n_clusters, rng)
            # The first iteration has no finite previous inertia to converge against.
            if np.isfinite(previous_inertia) and (
                previous_inertia - inertia <= self.tol * max(previous_inertia, 1e-12)
            ):
                break
            previous_inertia = inertia
        labels, closest_sq = _assign(X, centers)
        return labels.astype(np.int64), centers, float(closest_sq.sum()), iteration
