"""OPTICS: Ordering Points To Identify the Clustering Structure.

Ankerst, Breunig, Kriegel & Sander, SIGMOD 1999.  OPTICS produces a linear
ordering of the data together with a *reachability distance* per object; the
valleys of the reachability plot correspond to density-based clusters at all
density levels simultaneously.

In this library OPTICS serves as the density substrate of
:class:`~repro.clustering.fosc.FOSCOpticsDend`: the reachability information
is equivalent (up to the usual MinPts smoothing) to the density hierarchy
built in :mod:`repro.clustering.hierarchy`, and the dendrogram extracted
from it is what FOSC operates on.  A classic flat DBSCAN-style extraction at
a fixed ``eps`` is also provided.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.base import BaseClusterer
from repro.clustering.distances import k_nearest_distances
from repro.clustering.kernels import optics_ordering
from repro.utils.cache import cached_pairwise_distances
from repro.constraints.constraint import ConstraintSet
from repro.utils.rng import RandomStateLike
from repro.utils.validation import check_array_2d, check_positive_int


class OPTICS(BaseClusterer):
    """OPTICS ordering and reachability computation.

    Parameters
    ----------
    min_pts:
        Minimum number of points in the ε-neighbourhood of a core point
        (the object itself counts, matching the convention of the original
        paper and of the CVCP evaluation, where MinPts ranges over
        ``[3, 6, ..., 24]``).
    eps:
        Maximum neighbourhood radius; ``inf`` (default) means the full
        hierarchy is computed, which is what FOSC-OPTICSDend needs.
    metric:
        Distance metric passed to
        :func:`~repro.clustering.distances.pairwise_distances`.
    distance_backend:
        Storage tier for the pairwise-distance matrix — ``"blockwise"``
        (default), ``"memmap"`` or ``"neighbors"``; ``None`` consults
        ``REPRO_DISTANCE_BACKEND``.  The exact tiers are
        bit-identical; ``"neighbors"`` runs the sweep over a sparse
        epsilon-bounded k-NN graph instead of the full matrix
        (approximate-by-contract; see :mod:`repro.core.neighbor_graph`).
    epsilon / k_neighbors:
        Neighbour-graph radius and out-degree for the ``"neighbors"``
        tier (``None`` consults ``REPRO_NEIGHBOR_EPSILON`` /
        ``REPRO_NEIGHBOR_K``); ignored by the exact tiers.  ``epsilon``
        bounds the *graph*, while ``eps`` bounds the OPTICS scan — the
        effective radius is their minimum.

    Attributes
    ----------
    ordering_:
        Permutation of ``0..n-1`` in OPTICS visit order.
    reachability_:
        Reachability distance per object (indexed by object, not by
        position in the ordering); the first object of each connected
        component has ``inf``.
    core_distances_:
        Distance to the ``min_pts``-th nearest neighbour per object.
    labels_:
        Flat labels from :meth:`extract_dbscan` when ``eps`` is finite,
        otherwise a single cluster (OPTICS itself is not a flat clusterer).
    """

    tuned_parameter = "min_pts"

    def __init__(
        self,
        min_pts: int = 5,
        *,
        eps: float = np.inf,
        metric: str = "euclidean",
        distance_backend: str | None = None,
        epsilon: float | None = None,
        k_neighbors: int | None = None,
        random_state: RandomStateLike = None,
    ) -> None:
        self.min_pts = min_pts
        self.eps = eps
        self.metric = metric
        self.distance_backend = distance_backend
        self.epsilon = epsilon
        self.k_neighbors = k_neighbors
        self.random_state = random_state

    def fit(
        self,
        X: np.ndarray,
        constraints: ConstraintSet | None = None,
        seed_labels: dict[int, int] | None = None,
    ) -> "OPTICS":
        """Compute the OPTICS ordering of ``X`` (side information is ignored)."""
        X = check_array_2d(X)
        min_pts = check_positive_int(self.min_pts, name="min_pts")
        if min_pts > X.shape[0]:
            raise ValueError(
                f"min_pts={min_pts} exceeds the number of samples {X.shape[0]}"
            )

        from repro.core.distance_backend import get_distance_backend

        backend = get_distance_backend(self.distance_backend)
        if backend.name == "neighbors":
            # Sparse tier: the sweep runs over the epsilon-bounded k-NN
            # graph; no full matrix exists.
            from repro.core.neighbor_graph import (
                cached_neighbor_graph,
                sparse_optics_ordering,
            )

            graph = cached_neighbor_graph(
                X, metric=self.metric, epsilon=self.epsilon, k_neighbors=self.k_neighbors
            )
            self.core_distances_ = graph.core_distances(min_pts)
            self.ordering_, self.reachability_ = sparse_optics_ordering(
                graph.graph, self.core_distances_, self.eps
            )
            if np.isfinite(self.eps):
                self.labels_ = self.extract_dbscan(self.eps)
            else:
                self.labels_ = np.zeros(X.shape[0], dtype=np.int64)
            self._distances = None
            return self
        distances = cached_pairwise_distances(
            X, metric=self.metric, distance_backend=backend.name
        )
        self.core_distances_ = k_nearest_distances(distances, min_pts)
        # The sweep is one of the four hot kernels (see
        # repro.clustering.kernels).  It reads the matrix one row at a
        # time, so memmap-backed storage streams too.
        self.ordering_, self.reachability_ = optics_ordering(
            distances, self.core_distances_, self.eps
        )
        backend.release(distances)
        if np.isfinite(self.eps):
            self.labels_ = self.extract_dbscan(self.eps)
        else:
            self.labels_ = np.zeros(X.shape[0], dtype=np.int64)
        self._distances = distances
        return self

    # ------------------------------------------------------------------
    def reachability_plot(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(ordering, reachability in ordering order)`` for plotting."""
        if not hasattr(self, "ordering_"):
            raise AttributeError("OPTICS has not been fitted yet")
        return self.ordering_, self.reachability_[self.ordering_]

    def extract_dbscan(self, eps: float) -> np.ndarray:
        """Extract a flat DBSCAN-like clustering at radius ``eps``.

        Objects whose reachability exceeds ``eps`` start a new cluster if
        their own core distance is within ``eps`` and are labelled noise
        (``-1``) otherwise.
        """
        if not hasattr(self, "ordering_"):
            raise AttributeError("OPTICS has not been fitted yet")
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        labels = np.full(self.reachability_.shape[0], -1, dtype=np.int64)
        current_cluster = -1
        for index in self.ordering_:
            if self.reachability_[index] > eps:
                if self.core_distances_[index] <= eps:
                    current_cluster += 1
                    labels[index] = current_cluster
                else:
                    labels[index] = -1
            else:
                if current_cluster == -1:
                    current_cluster = 0
                labels[index] = current_cluster
        return labels
