"""COP-KMeans: k-means with hard must-link / cannot-link constraints.

Wagstaff, Cardie, Rogers & Schrödl, *Constrained K-means Clustering with
Background Knowledge*, ICML 2001.  Points are assigned greedily to the
nearest centroid that does not violate any constraint given the assignments
made so far; if no centroid is feasible for some point, the run fails and is
restarted with a different seeding / assignment order.

The paper under reproduction uses MPCK-Means as its partitional
representative, but COP-KMeans is the classic hard-constraint alternative
and is exercised by the extension experiments ("future work will include the
study of CVCP in combination with other semi-supervised clustering
methods").
"""

from __future__ import annotations

import numpy as np

from repro.clustering.base import BaseClusterer
from repro.clustering.distances import euclidean_distances
from repro.clustering.kmeans import kmeans_plus_plus_init
from repro.constraints.closure import _must_link_roots, _ordered_components, transitive_closure
from repro.constraints.constraint import ConstraintSet
from repro.utils.rng import RandomStateLike, check_random_state
from repro.utils.validation import check_array_2d, check_positive_int


class ConstraintViolationError(RuntimeError):
    """Raised when no constraint-respecting assignment could be found."""


class COPKMeans(BaseClusterer):
    """Hard-constrained k-means.

    Parameters
    ----------
    n_clusters:
        Number of clusters ``k``.
    n_init:
        Number of restarts (differing in seeding and assignment order).
    max_iter:
        Maximum Lloyd iterations per restart.
    max_retries:
        Additional restarts allowed when a run dies because a point has no
        feasible cluster.
    random_state:
        Seed or generator.

    Notes
    -----
    Must-link constraints are honoured by assigning whole must-link
    components at once (the transitive closure is computed internally), and
    cannot-link constraints by excluding clusters already containing a
    conflicting component.
    """

    tuned_parameter = "n_clusters"

    def __init__(
        self,
        n_clusters: int = 3,
        *,
        n_init: int = 5,
        max_iter: int = 100,
        max_retries: int = 10,
        random_state: RandomStateLike = None,
    ) -> None:
        self.n_clusters = n_clusters
        self.n_init = n_init
        self.max_iter = max_iter
        self.max_retries = max_retries
        self.random_state = random_state

    def fit(
        self,
        X: np.ndarray,
        constraints: ConstraintSet | None = None,
        seed_labels: dict[int, int] | None = None,
    ) -> "COPKMeans":
        """Cluster ``X`` under *hard* pairwise constraints.

        Parameters
        ----------
        X:
            ``(n, d)`` data matrix.
        constraints:
            Must-link / cannot-link constraints; every returned assignment
            satisfies the transitive closure of this set exactly (COP-KMeans
            treats constraints as inviolable, unlike MPCK-Means' penalties).
        seed_labels:
            Optional partial labelling, converted to its induced pairwise
            constraints before clustering.

        Raises
        ------
        ConstraintViolationError
            If no constraint-respecting assignment could be found for some
            object in any restart.
        """
        X = check_array_2d(X)
        n_clusters = check_positive_int(self.n_clusters, name="n_clusters")
        if n_clusters > X.shape[0]:
            raise ValueError(
                f"n_clusters={n_clusters} exceeds the number of samples {X.shape[0]}"
            )
        rng = check_random_state(self.random_state)

        constraints = constraints if constraints is not None else ConstraintSet()
        if seed_labels:
            from repro.constraints.generation import constraints_from_labels

            constraints = constraints.merged_with(constraints_from_labels(seed_labels))
        closure = transitive_closure(constraints, strict=False)
        components, component_of = self._components(X.shape[0], closure)
        cannot_pairs = self._component_cannot_links(closure, component_of)

        best_inertia = np.inf
        best_labels: np.ndarray | None = None
        best_centers: np.ndarray | None = None
        attempts = self.n_init + self.max_retries
        for _ in range(attempts):
            try:
                labels, centers, inertia = self._single_run(
                    X, n_clusters, components, component_of, cannot_pairs, rng
                )
            except ConstraintViolationError:
                continue
            if inertia < best_inertia:
                best_inertia = inertia
                best_labels = labels
                best_centers = centers

        if best_labels is None:
            raise ConstraintViolationError(
                "COP-KMeans could not find any assignment satisfying all constraints "
                f"with n_clusters={n_clusters}"
            )
        self.labels_ = best_labels
        self.cluster_centers_ = best_centers
        self.inertia_ = float(best_inertia)
        return self

    # ------------------------------------------------------------------
    @staticmethod
    def _components(
        n_samples: int, closure: ConstraintSet
    ) -> tuple[list[list[int]], np.ndarray]:
        """Must-link components (singletons for unconstrained objects).

        Components are numbered in order of their smallest member.
        """
        roots = np.arange(n_samples)
        objects, object_roots = _must_link_roots(closure)
        roots[objects] = object_roots
        component_of, members, _, starts = _ordered_components(np.arange(n_samples), roots)
        return [group.tolist() for group in np.split(members, starts[1:])], component_of

    @staticmethod
    def _component_cannot_links(
        closure: ConstraintSet, component_of: np.ndarray
    ) -> set[tuple[int, int]]:
        pairs: set[tuple[int, int]] = set()
        for constraint in closure.cannot_links:
            a = int(component_of[constraint.i])
            b = int(component_of[constraint.j])
            if a != b:
                pairs.add((min(a, b), max(a, b)))
        return pairs

    def _single_run(
        self,
        X: np.ndarray,
        n_clusters: int,
        components: list[list[int]],
        component_of: np.ndarray,
        cannot_pairs: set[tuple[int, int]],
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray, float]:
        centers = kmeans_plus_plus_init(X, n_clusters, rng)
        n_components = len(components)
        component_sizes = np.array([len(c) for c in components], dtype=np.float64)
        component_means = np.vstack([X[c].mean(axis=0) for c in components])

        labels = np.full(X.shape[0], -1, dtype=np.int64)
        for _ in range(self.max_iter):
            component_labels = np.full(n_components, -1, dtype=np.int64)
            cluster_members: list[set[int]] = [set() for _ in range(n_clusters)]
            # Assign larger components first: they are the hardest to place.
            order = np.argsort(-component_sizes + rng.random(n_components) * 1e-9)
            for component_id in order:
                distances = euclidean_distances(
                    component_means[component_id:component_id + 1], centers, squared=True
                ).ravel()
                feasible_found = False
                for cluster in np.argsort(distances):
                    conflict = any(
                        (min(component_id, other), max(component_id, other)) in cannot_pairs
                        for other in cluster_members[cluster]
                    )
                    if not conflict:
                        component_labels[component_id] = cluster
                        cluster_members[cluster].add(int(component_id))
                        feasible_found = True
                        break
                if not feasible_found:
                    raise ConstraintViolationError(
                        f"no feasible cluster for must-link component {component_id}"
                    )
            new_labels = component_labels[component_of]
            if np.array_equal(new_labels, labels):
                labels = new_labels
                break
            labels = new_labels
            for h in range(n_clusters):
                members = labels == h
                if np.any(members):
                    centers[h] = X[members].mean(axis=0)
        distances = euclidean_distances(X, centers, squared=True)
        inertia = float(distances[np.arange(X.shape[0]), labels].sum())
        return labels, centers, inertia
