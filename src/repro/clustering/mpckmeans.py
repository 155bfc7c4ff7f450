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

Each quantity of the loop is computed once, in one place: per fit
(``_FitData``) the data span, the closure's pairs with their squared
differences, the neighbour views and the seeds; per ``(centers, weights)``
(``_ModelState``) the point–centre distances, ``log_det`` and ``max_sq``,
which the objective builds and the next assignment reads (``1 + k`` distance
evaluations for a restart of ``k`` iterations); per labelling
(``_Violations``) one gather of the violated pairs for both the metric update
and the objective.  Penalties accumulate in the order of per-pair loops
(``np.add.at`` in pair order, a sequential total, row sums of C-contiguous
blocks), so the results are those of such loops, bit for bit.
"""

from __future__ import annotations

from typing import NamedTuple

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


class _Violations(NamedTuple):
    """The closure pairs one labelling violates, in closure order."""

    must_labels: np.ndarray  # (m, 2) labels of each violated must-link's ends
    must_diff_sq: np.ndarray  # (m, d) its rows (X[i] - X[j]) ** 2
    cannot_labels: np.ndarray  # (c,) the one label of each violated cannot-link
    cannot_diff_sq: np.ndarray  # (c, d)


class _FitData(NamedTuple):
    """What one fit computes once and every restart and iteration reads."""

    spans: np.ndarray  # (d,) X.max(0) - X.min(0)
    span_sq: np.ndarray
    must_pairs: np.ndarray  # (p, 2) closure must-links
    must_diff_sq: np.ndarray  # (p, d) rows (X[i] - X[j]) ** 2
    cannot_pairs: np.ndarray
    cannot_diff_sq: np.ndarray
    # CSR neighbour views over the closure, read by every assignment sweep.
    must_csr: tuple[np.ndarray, np.ndarray]
    cannot_csr: tuple[np.ndarray, np.ndarray]
    seeds: list[np.ndarray]  # means of the largest must-link neighbourhoods

    @classmethod
    def of(cls, X: np.ndarray, closure: ConstraintSet, n_clusters: int) -> "_FitData":
        must_pairs = closure.must_link_array()
        cannot_pairs = closure.cannot_link_array()
        # Seed centroids from must-link neighbourhoods; each restart tops
        # them up with k-means++.
        ds = DisjointSet()
        for i, j in must_pairs.tolist():
            ds.union(i, j)
        neighbourhoods = sorted(ds.groups(), key=len, reverse=True)
        spans = X.max(axis=0) - X.min(axis=0)
        return cls(
            spans,
            spans**2,
            must_pairs,
            (X[must_pairs[:, 0]] - X[must_pairs[:, 1]]) ** 2,
            cannot_pairs,
            (X[cannot_pairs[:, 0]] - X[cannot_pairs[:, 1]]) ** 2,
            build_neighbor_csr(must_pairs, X.shape[0]),
            build_neighbor_csr(cannot_pairs, X.shape[0]),
            [X[list(group)].mean(axis=0) for group in neighbourhoods[:n_clusters]],
        )

    def violations(self, labels: np.ndarray) -> _Violations:
        must_labels = labels[self.must_pairs]
        split = must_labels[:, 0] != must_labels[:, 1]
        cannot_labels = labels[self.cannot_pairs]
        joined = cannot_labels[:, 0] == cannot_labels[:, 1]
        return _Violations(
            must_labels[split],
            self.must_diff_sq[split],
            cannot_labels[joined, 0],
            self.cannot_diff_sq[joined],
        )


class _ModelState(NamedTuple):
    """One ``(centers, weights)`` pair and what assignment and objective read of it."""

    centers: np.ndarray  # (k, d)
    weights: np.ndarray  # (k, d)
    distances: np.ndarray  # (n, k) squared metric distances
    log_det: np.ndarray  # (k,)
    max_sq: np.ndarray  # (k,) cannot-link penalty scale


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
        fit = _FitData.of(X, transitive_closure(constraints, strict=False), n_clusters)

        best: tuple[float, np.ndarray, np.ndarray, np.ndarray, int] | None = None
        for _ in range(self.n_init):
            outcome = self._single_run(X, n_clusters, fit, rng)
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
        self, X: np.ndarray, n_clusters: int, fit: _FitData, rng: np.random.Generator
    ) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, int]:
        seeds = list(fit.seeds)
        if len(seeds) < n_clusters:
            extra = kmeans_plus_plus_init(X, n_clusters, rng)
            seeds.extend(extra[len(seeds):n_clusters])
        centers = np.vstack(seeds)[:n_clusters].astype(np.float64)
        state = self._state(X, centers, np.ones_like(centers), fit.spans)
        labels = np.argmin(state.distances, axis=1).astype(np.int64)

        previous_objective = np.inf
        objective = None
        iteration = 0
        for iteration in range(1, self.max_iter + 1):
            # Greedy ICM sweep in random order: one of the hot kernels
            # (repro.clustering.kernels.mpck_assign), fed the state that the
            # previous objective (or the initial labels) already computed.
            labels = mpck_assign(
                X, state.weights, labels, state.distances, state.log_det, state.max_sq,
                *fit.must_csr, *fit.cannot_csr, rng.permutation(X.shape[0]), self.constraint_weight,
            )
            violations = fit.violations(labels)
            centers = self._update_centers(X, labels, state.centers)
            weights = state.weights
            if self.learn_metrics:
                weights = self._update_metrics(X, labels, centers, violations, fit.span_sq)
            state = self._state(X, centers, weights, fit.spans)
            objective = self._objective(labels, state, violations)
            if previous_objective - objective <= self.tol * max(abs(previous_objective), 1.0):
                break
            previous_objective = objective

        # The loop's last objective already scored the final partition; only
        # max_iter=0 leaves the initial one unscored.
        if objective is None:
            objective = self._objective(labels, state, fit.violations(labels))
        return objective, labels.astype(np.int64), state.centers, state.weights, iteration

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

    def _state(
        self, X: np.ndarray, centers: np.ndarray, weights: np.ndarray, spans: np.ndarray
    ) -> _ModelState:
        """Everything the assignment and the objective read of one ``(centers, weights)``.

        ``max_sq`` is the per-cluster cannot-link penalty scale:
        ``f_CL(i, j) = max_sq_h - d_h(i, j)``, so violating a cannot-link
        between nearby points costs more than between distant ones.  It is
        the squared data diameter under each metric.
        """
        return _ModelState(
            centers,
            weights,
            self._point_center_distances(X, centers, weights),
            # Row sums of a C-contiguous block reduce each row like a 1-D sum.
            np.log(np.maximum(weights, _EPS)).sum(axis=1),
            np.array([float(np.dot(spans * row, spans)) for row in weights], dtype=np.float64),
        )

    @staticmethod
    def _update_centers(X: np.ndarray, labels: np.ndarray, centers: np.ndarray) -> np.ndarray:
        new_centers = centers.copy()
        for h in range(centers.shape[0]):
            members = labels == h
            if np.any(members):
                new_centers[h] = X[members].mean(axis=0)
        return new_centers

    def _update_metrics(
        self, X: np.ndarray, labels: np.ndarray, centers: np.ndarray, violations: _Violations,
        span_sq: np.ndarray,
    ) -> np.ndarray:
        """Closed-form update of the per-cluster diagonal metrics.

        For every cluster ``h`` and dimension ``d`` the weight is the cluster
        size divided by the accumulated squared deviation along ``d``
        (within-cluster scatter plus the contributions of violated
        constraints involving the cluster), following Bilenko et al. (2004).
        """
        w = self.constraint_weight
        counts = np.bincount(labels, minlength=centers.shape[0]).astype(np.float64)
        scatter = np.zeros(centers.shape, dtype=np.float64)
        for h in np.flatnonzero(counts):
            diff = X[labels == h] - centers[h]
            scatter[h] = np.einsum("ij,ij->j", diff, diff)

        # np.add.at applies its updates in index order: pair by pair, the
        # i end's cluster before the j end's, must-links before cannot-links.
        np.add.at(scatter, violations.must_labels, (0.5 * w * violations.must_diff_sq)[:, None, :])
        np.add.at(
            scatter, violations.cannot_labels, w * np.maximum(span_sq - violations.cannot_diff_sq, 0.0)
        )

        # An empty cluster keeps the unit metric; the clip guards against
        # degenerate dimensions blowing the metric up.
        weights = np.ones(centers.shape, dtype=np.float64)
        filled = counts > 0
        weights[filled] = np.clip(counts[filled, None] / np.maximum(scatter[filled], _EPS), 1e-6, 1e6)
        return weights

    def _objective(self, labels: np.ndarray, state: _ModelState, violations: _Violations) -> float:
        w = self.constraint_weight
        weights = state.weights
        total = float(state.distances[np.arange(labels.shape[0]), labels].sum())
        total -= float(state.log_det[labels].sum())

        # Same squared-difference formulation as the assignment kernels
        # (repro.clustering.kernels.mpck_assign), so objective and
        # assignment agree bit-for-bit on every penalty term.
        must_diff_sq = violations.must_diff_sq
        must_ends = violations.must_labels
        must_terms = w * 0.5 * (
            (must_diff_sq * weights[must_ends[:, 0]]).sum(axis=1)
            + (must_diff_sq * weights[must_ends[:, 1]]).sum(axis=1)
        )
        cannot_labels = violations.cannot_labels
        pair_distance = (violations.cannot_diff_sq * weights[cannot_labels]).sum(axis=1)
        cannot_terms = w * np.maximum(state.max_sq[cannot_labels] - pair_distance, 0.0)
        # Added one by one in pair order, as the penalties accrue.
        for term in must_terms.tolist() + cannot_terms.tolist():
            total += term
        return total
