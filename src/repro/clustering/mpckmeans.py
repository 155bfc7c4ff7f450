"""MPCK-Means: metric pairwise constrained k-means.

Bilenko, Basu & Mooney, *Integrating Constraints and Metric Learning in
Semi-Supervised Clustering*, ICML 2004.  This is the partitional
semi-supervised algorithm used throughout the evaluation of the CVCP paper;
its tuned parameter is the number of clusters ``k``.

The algorithm minimises an objective combining

* the (squared) distance of each point to its cluster centroid under a
  learned per-cluster diagonal metric ``A_h`` (with the usual
  ``- log det A_h`` normalisation term),
* a penalty for every violated must-link constraint, proportional to the
  distance between the two points under the involved metrics (far-apart
  must-linked points are worse),
* a penalty for every violated cannot-link constraint, proportional to how
  close the two points are (close cannot-linked points are worse).

Optimisation is EM-style: greedy ICM assignment of points in random order,
then centroid updates, then diagonal metric updates.  Initialisation uses
the must-link neighbourhoods (transitive-closure components) as seed
centroids, topped up with k-means++ when there are fewer neighbourhoods
than clusters.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.base import BaseClusterer
from repro.clustering.kernels import build_neighbor_csr, mpck_assign
from repro.clustering.kmeans import kmeans_plus_plus_init
from repro.constraints.closure import transitive_closure
from repro.constraints.constraint import ConstraintSet
from repro.utils.disjoint_set import DisjointSet
from repro.utils.rng import RandomStateLike, check_random_state
from repro.utils.validation import check_array_2d, check_positive_int

_EPS = 1e-12


class MPCKMeans(BaseClusterer):
    """Metric pairwise constrained k-means (MPCK-Means).

    Parameters
    ----------
    n_clusters:
        Number of clusters ``k`` (the parameter CVCP selects).
    constraint_weight:
        Weight ``w`` of every constraint-violation penalty.
    learn_metrics:
        Whether to learn one diagonal metric per cluster (the "M" in MPCK);
        with ``False`` the algorithm degenerates to PCK-Means, i.e. plain
        penalised constrained k-means in the Euclidean metric.
    n_init:
        Number of random restarts; the run with the lowest objective wins.
    max_iter:
        Maximum EM iterations per restart.
    tol:
        Relative objective-improvement tolerance used to declare convergence.
    random_state:
        Seed or generator.

    Attributes
    ----------
    labels_:
        Cluster labels of the training data.
    cluster_centers_:
        ``(k, d)`` centroids.
    metric_weights_:
        ``(k, d)`` learned diagonal metric weights (all ones when
        ``learn_metrics=False``).
    objective_:
        Final value of the MPCK objective.
    n_iter_:
        EM iterations used by the best restart.
    """

    tuned_parameter = "n_clusters"

    def __init__(
        self,
        n_clusters: int = 3,
        *,
        constraint_weight: float = 1.0,
        learn_metrics: bool = True,
        n_init: int = 3,
        max_iter: int = 30,
        tol: float = 1e-5,
        random_state: RandomStateLike = None,
    ) -> None:
        self.n_clusters = n_clusters
        self.constraint_weight = constraint_weight
        self.learn_metrics = learn_metrics
        self.n_init = n_init
        self.max_iter = max_iter
        self.tol = tol
        self.random_state = random_state

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def fit(
        self,
        X: np.ndarray,
        constraints: ConstraintSet | None = None,
        seed_labels: dict[int, int] | None = None,
    ) -> "MPCKMeans":
        """Cluster ``X`` guided by pairwise constraints.

        ``seed_labels`` (a partial labelling) is accepted for convenience
        and converted to its induced constraints, as described in
        Section 3.1.1 of the CVCP paper.
        """
        X = check_array_2d(X)
        n_clusters = check_positive_int(self.n_clusters, name="n_clusters")
        if n_clusters > X.shape[0]:
            raise ValueError(
                f"n_clusters={n_clusters} exceeds the number of samples {X.shape[0]}"
            )
        if self.constraint_weight < 0:
            raise ValueError(f"constraint_weight must be >= 0, got {self.constraint_weight}")
        rng = check_random_state(self.random_state)

        constraints = constraints if constraints is not None else ConstraintSet()
        if seed_labels:
            from repro.constraints.generation import constraints_from_labels

            constraints = constraints.merged_with(constraints_from_labels(seed_labels))
        closure = transitive_closure(constraints, strict=False)
        must_pairs = closure.must_link_array()
        cannot_pairs = closure.cannot_link_array()

        best: tuple[float, np.ndarray, np.ndarray, np.ndarray, int] | None = None
        for _ in range(self.n_init):
            outcome = self._single_run(X, n_clusters, must_pairs, cannot_pairs, closure, rng)
            if best is None or outcome[0] < best[0]:
                best = outcome

        assert best is not None
        objective, labels, centers, weights, iterations = best
        self.labels_ = labels
        self.cluster_centers_ = centers
        self.metric_weights_ = weights
        self.objective_ = float(objective)
        self.n_iter_ = iterations
        return self

    # ------------------------------------------------------------------
    # Internal machinery
    # ------------------------------------------------------------------
    def _single_run(
        self,
        X: np.ndarray,
        n_clusters: int,
        must_pairs: np.ndarray,
        cannot_pairs: np.ndarray,
        closure: ConstraintSet,
        rng: np.random.Generator,
    ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, int]:
        n_samples, n_features = X.shape
        centers = self._initial_centers(X, n_clusters, closure, rng)
        weights = np.ones((n_clusters, n_features), dtype=np.float64)
        labels = self._nearest_center_labels(X, centers, weights)

        # CSR neighbour views over the closure, shared by every assignment
        # sweep.
        must_csr = build_neighbor_csr(must_pairs, n_samples)
        cannot_csr = build_neighbor_csr(cannot_pairs, n_samples)

        previous_objective = np.inf
        iteration = 0
        for iteration in range(1, self.max_iter + 1):
            labels = self._assign(X, centers, weights, labels, must_csr, cannot_csr, rng)
            centers = self._update_centers(X, labels, centers, n_clusters)
            if self.learn_metrics:
                weights = self._update_metrics(
                    X, labels, centers, n_clusters, must_pairs, cannot_pairs
                )
            objective = self._objective(X, labels, centers, weights, must_pairs, cannot_pairs)
            if previous_objective - objective <= self.tol * max(abs(previous_objective), 1.0):
                previous_objective = objective
                break
            previous_objective = objective

        objective = self._objective(X, labels, centers, weights, must_pairs, cannot_pairs)
        return objective, labels.astype(np.int64), centers, weights, iteration

    def _initial_centers(
        self,
        X: np.ndarray,
        n_clusters: int,
        closure: ConstraintSet,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Seed centroids from must-link neighbourhoods, topped up with k-means++."""
        ds = DisjointSet()
        for i, j in closure.must_link_array().tolist():
            ds.union(i, j)
        neighbourhoods = sorted(ds.groups(), key=len, reverse=True)
        seeds = [X[list(group)].mean(axis=0) for group in neighbourhoods[:n_clusters]]
        if len(seeds) < n_clusters:
            extra = kmeans_plus_plus_init(X, n_clusters, rng)
            seeds.extend(extra[len(seeds):n_clusters])
        return np.vstack(seeds)[:n_clusters].astype(np.float64)

    @staticmethod
    def _point_center_distances(
        X: np.ndarray, centers: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        """Squared diagonal-metric distance of every point to every center."""
        n_clusters = centers.shape[0]
        distances = np.empty((X.shape[0], n_clusters), dtype=np.float64)
        for h in range(n_clusters):
            diff = X - centers[h]
            distances[:, h] = np.einsum("ij,j,ij->i", diff, weights[h], diff)
        np.maximum(distances, 0.0, out=distances)
        return distances

    def _nearest_center_labels(
        self, X: np.ndarray, centers: np.ndarray, weights: np.ndarray
    ) -> np.ndarray:
        return np.argmin(self._point_center_distances(X, centers, weights), axis=1).astype(np.int64)

    def _pair_penalties(
        self, X: np.ndarray, weights: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-cluster maximum penalty scale used for cannot-link violations.

        ``f_CL(i, j) = max_distance_h - d_h(i, j)``: violating a cannot-link
        between nearby points costs more than between distant ones.  The
        per-cluster maximum distance is estimated from the data diameter
        under each metric.
        """
        n_clusters = weights.shape[0]
        spans = X.max(axis=0) - X.min(axis=0)
        max_sq = np.array(
            [float(np.dot(spans * weights[h], spans)) for h in range(n_clusters)],
            dtype=np.float64,
        )
        return max_sq, spans

    def _assign(
        self,
        X: np.ndarray,
        centers: np.ndarray,
        weights: np.ndarray,
        labels: np.ndarray,
        must_csr: tuple[np.ndarray, np.ndarray],
        cannot_csr: tuple[np.ndarray, np.ndarray],
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Greedy ICM assignment of points in random order.

        The sweep itself is one of the four hot kernels
        (:func:`~repro.clustering.kernels.mpck_assign`); the shared
        per-sweep quantities (point–centre distances, metric
        log-determinants, cannot-link penalty scales) are computed here.
        """
        n_samples = X.shape[0]
        n_clusters = centers.shape[0]

        log_det = np.array(
            [float(np.sum(np.log(np.maximum(weights[h], _EPS)))) for h in range(n_clusters)]
        )
        distances = self._point_center_distances(X, centers, weights)
        max_sq, _ = self._pair_penalties(X, weights)
        order = rng.permutation(n_samples)
        return mpck_assign(
            X,
            weights,
            labels,
            distances,
            log_det,
            max_sq,
            must_csr[0],
            must_csr[1],
            cannot_csr[0],
            cannot_csr[1],
            order,
            self.constraint_weight,
        )

    @staticmethod
    def _update_centers(
        X: np.ndarray, labels: np.ndarray, centers: np.ndarray, n_clusters: int
    ) -> np.ndarray:
        new_centers = centers.copy()
        for h in range(n_clusters):
            members = labels == h
            if np.any(members):
                new_centers[h] = X[members].mean(axis=0)
        return new_centers

    def _update_metrics(
        self,
        X: np.ndarray,
        labels: np.ndarray,
        centers: np.ndarray,
        n_clusters: int,
        must_pairs: np.ndarray,
        cannot_pairs: np.ndarray,
    ) -> np.ndarray:
        """Closed-form update of the per-cluster diagonal metrics.

        For every cluster ``h`` and dimension ``d`` the weight is the cluster
        size divided by the accumulated squared deviation along ``d``
        (within-cluster scatter plus the contributions of violated
        constraints involving the cluster), following Bilenko et al. (2004).
        """
        n_features = X.shape[1]
        w = self.constraint_weight
        spans = X.max(axis=0) - X.min(axis=0)
        span_sq = spans**2

        scatter = np.zeros((n_clusters, n_features), dtype=np.float64)
        counts = np.zeros(n_clusters, dtype=np.float64)
        for h in range(n_clusters):
            members = labels == h
            counts[h] = float(np.count_nonzero(members))
            if counts[h] > 0:
                diff = X[members] - centers[h]
                scatter[h] = np.einsum("ij,ij->j", diff, diff)

        for i, j in must_pairs:
            if labels[i] != labels[j]:
                diff_sq = (X[i] - X[j]) ** 2
                scatter[labels[i]] += 0.5 * w * diff_sq
                scatter[labels[j]] += 0.5 * w * diff_sq
        for i, j in cannot_pairs:
            if labels[i] == labels[j]:
                diff_sq = (X[i] - X[j]) ** 2
                scatter[labels[i]] += w * np.maximum(span_sq - diff_sq, 0.0)

        weights = np.ones((n_clusters, n_features), dtype=np.float64)
        for h in range(n_clusters):
            if counts[h] == 0:
                continue
            denominator = np.maximum(scatter[h], _EPS)
            weights[h] = counts[h] / denominator
            # Guard against degenerate dimensions blowing the metric up.
            weights[h] = np.clip(weights[h], 1e-6, 1e6)
        return weights

    def _objective(
        self,
        X: np.ndarray,
        labels: np.ndarray,
        centers: np.ndarray,
        weights: np.ndarray,
        must_pairs: np.ndarray,
        cannot_pairs: np.ndarray,
    ) -> float:
        n_clusters = centers.shape[0]
        w = self.constraint_weight
        log_det = np.array(
            [float(np.sum(np.log(np.maximum(weights[h], _EPS)))) for h in range(n_clusters)]
        )
        distances = self._point_center_distances(X, centers, weights)
        total = float(distances[np.arange(X.shape[0]), labels].sum())
        total -= float(log_det[labels].sum())

        max_sq, _ = self._pair_penalties(X, weights)
        # Same squared-difference formulation as the assignment kernels
        # (repro.clustering.kernels.mpck_assign), so objective and
        # assignment agree bit-for-bit on every penalty term.
        for i, j in must_pairs:
            if labels[i] != labels[j]:
                diff_sq = (X[i] - X[j]) ** 2
                total += w * 0.5 * (
                    float(np.sum(diff_sq * weights[labels[i]]))
                    + float(np.sum(diff_sq * weights[labels[j]]))
                )
        for i, j in cannot_pairs:
            if labels[i] == labels[j]:
                diff_sq = (X[i] - X[j]) ** 2
                pair_distance = float(np.sum(diff_sq * weights[labels[i]]))
                total += w * max(max_sq[labels[i]] - pair_distance, 0.0)
        return total
