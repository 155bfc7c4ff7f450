"""Seeded and Constrained K-Means (Basu, Banerjee & Mooney, ICML 2002).

These are the classic semi-supervised k-means variants that consume a
*partial labelling* directly (rather than pairwise constraints):

* **Seeded-KMeans** — the labelled objects ("seeds") only initialise the
  centroids; afterwards plain Lloyd iterations run and seeds may drift to
  other clusters.  Appropriate when the seeds may be noisy.
* **Constrained-KMeans** — the seeds additionally stay clamped to their
  seed cluster in every assignment step.  Appropriate when the seeds are
  trusted.

They complement MPCK-Means in the extension experiments: the CVCP paper's
Scenario I explicitly allows algorithms "that use labels directly", which
these two do (the ``use_labels_directly=True`` path of
:class:`repro.core.cvcp.CVCP`).
"""

from __future__ import annotations

import numpy as np

from repro.clustering.base import BaseClusterer
from repro.clustering.distances import euclidean_distances
from repro.clustering.kmeans import kmeans_plus_plus_init
from repro.constraints.closure import transitive_closure
from repro.constraints.constraint import ConstraintSet
from repro.utils.rng import RandomStateLike, check_random_state
from repro.utils.validation import check_array_2d, check_positive_int


class SeededKMeans(BaseClusterer):
    """K-means initialised (and optionally constrained) by labelled seeds.

    Parameters
    ----------
    n_clusters:
        Number of clusters ``k``.  Seed classes are mapped to the first
        clusters; if there are more seed classes than ``k`` the largest
        ``k`` classes are used as seeds and the rest are ignored.
    clamp_seeds:
        ``False`` gives Seeded-KMeans (seeds only initialise),
        ``True`` gives Constrained-KMeans (seeds stay in their cluster).
    max_iter:
        Maximum Lloyd iterations.
    tol:
        Relative inertia-improvement tolerance for convergence.
    random_state:
        Seed or generator (used only when extra centroids must be invented
        because there are fewer seed classes than clusters).

    Notes
    -----
    If no ``seed_labels`` are provided at fit time, the algorithm reduces to
    plain k-means with k-means++ initialisation.  When ``constraints`` are
    provided instead of labels, seed groups are derived from the must-link
    components of the transitive closure (cannot-links are ignored), so the
    estimator stays usable inside CVCP's constraint scenario.
    """

    tuned_parameter = "n_clusters"

    def __init__(
        self,
        n_clusters: int = 3,
        *,
        clamp_seeds: bool = False,
        max_iter: int = 100,
        tol: float = 1e-6,
        random_state: RandomStateLike = None,
    ) -> None:
        self.n_clusters = n_clusters
        self.clamp_seeds = clamp_seeds
        self.max_iter = max_iter
        self.tol = tol
        self.random_state = random_state

    # ------------------------------------------------------------------
    def fit(
        self,
        X: np.ndarray,
        constraints: ConstraintSet | None = None,
        seed_labels: dict[int, int] | None = None,
    ) -> "SeededKMeans":
        """Cluster ``X`` initialised from a partial labelling.

        Parameters
        ----------
        X:
            ``(n, d)`` data matrix.
        constraints:
            Accepted for interface compatibility; the must-link components
            of their transitive closure are converted into seed groups.
        seed_labels:
            ``{object index: class}`` partial labelling — the primary side
            information of the seeded family.  Seed classes initialise the
            centroids (and, for :class:`ConstrainedKMeans`, clamp their
            objects' assignments).
        """
        X = check_array_2d(X)
        n_clusters = check_positive_int(self.n_clusters, name="n_clusters")
        if n_clusters > X.shape[0]:
            raise ValueError(
                f"n_clusters={n_clusters} exceeds the number of samples {X.shape[0]}"
            )
        rng = check_random_state(self.random_state)

        seed_groups = self._seed_groups(constraints, seed_labels)
        centers, seed_assignment = self._initial_centers(X, n_clusters, seed_groups, rng)

        previous_inertia = np.inf
        labels = np.zeros(X.shape[0], dtype=np.int64)
        for _ in range(self.max_iter):
            distances = euclidean_distances(X, centers, squared=True)
            labels = np.argmin(distances, axis=1).astype(np.int64)
            if self.clamp_seeds:
                for index, cluster in seed_assignment.items():
                    labels[index] = cluster
            inertia = float(distances[np.arange(X.shape[0]), labels].sum())
            for h in range(n_clusters):
                members = labels == h
                if np.any(members):
                    centers[h] = X[members].mean(axis=0)
            # The first iteration has no finite previous inertia to converge against.
            if np.isfinite(previous_inertia) and (
                previous_inertia - inertia <= self.tol * max(previous_inertia, 1e-12)
            ):
                break
            previous_inertia = inertia

        self.labels_ = labels
        self.cluster_centers_ = centers
        self.inertia_ = float(
            euclidean_distances(X, centers, squared=True)[np.arange(X.shape[0]), labels].sum()
        )
        return self

    # ------------------------------------------------------------------
    @staticmethod
    def _seed_groups(
        constraints: ConstraintSet | None,
        seed_labels: dict[int, int] | None,
    ) -> list[list[int]]:
        """Groups of object indices believed to share a cluster."""
        if seed_labels:
            by_class: dict[int, list[int]] = {}
            for index, label in seed_labels.items():
                by_class.setdefault(int(label), []).append(int(index))
            return sorted(by_class.values(), key=len, reverse=True)
        if constraints is not None and len(constraints):
            from repro.constraints.closure import must_link_components

            closed = transitive_closure(constraints, strict=False)
            components = [c for c in must_link_components(closed) if len(c) > 1]
            return sorted(components, key=len, reverse=True)
        return []

    def _initial_centers(
        self,
        X: np.ndarray,
        n_clusters: int,
        seed_groups: list[list[int]],
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, dict[int, int]]:
        centers = np.empty((n_clusters, X.shape[1]), dtype=np.float64)
        seed_assignment: dict[int, int] = {}
        used = 0
        for cluster, group in enumerate(seed_groups[:n_clusters]):
            centers[cluster] = X[group].mean(axis=0)
            for index in group:
                seed_assignment[index] = cluster
            used += 1
        if used < n_clusters:
            extra = kmeans_plus_plus_init(X, n_clusters, rng)
            centers[used:] = extra[used:]
        return centers, seed_assignment


class ConstrainedKMeans(SeededKMeans):
    """Constrained-KMeans: Seeded-KMeans with seeds clamped to their cluster."""

    def __init__(
        self,
        n_clusters: int = 3,
        *,
        max_iter: int = 100,
        tol: float = 1e-6,
        random_state: RandomStateLike = None,
    ) -> None:
        super().__init__(
            n_clusters,
            clamp_seeds=True,
            max_iter=max_iter,
            tol=tol,
            random_state=random_state,
        )

    @classmethod
    def _param_names(cls) -> list[str]:
        # ``clamp_seeds`` is fixed by the subclass and must not be exposed as
        # a constructor parameter for cloning.
        return ["n_clusters", "max_iter", "tol", "random_state"]
