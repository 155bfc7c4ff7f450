"""Agglomerative hierarchical clustering (single / complete / average linkage).

An additional clustering paradigm for the extension experiments: cutting an
agglomerative dendrogram at ``n_clusters`` gives another family of candidate
models whose parameter CVCP can select, and whose hierarchy FOSC can consume
through :meth:`AgglomerativeClustering.merge_tree_`.

The implementation is the classic O(n³)/O(n²) Lance–Williams update on a
dense distance matrix, which is ample for the paper-scale data sets
(≤ 400 objects).
"""

from __future__ import annotations

import numpy as np

from repro.clustering.base import BaseClusterer
from repro.utils.cache import cached_pairwise_distances
from repro.constraints.constraint import ConstraintSet
from repro.utils.rng import RandomStateLike
from repro.utils.validation import check_array_2d, check_positive_int

_LINKAGES = ("single", "complete", "average")


class AgglomerativeClustering(BaseClusterer):
    """Bottom-up hierarchical clustering cut at a fixed number of clusters.

    Parameters
    ----------
    n_clusters:
        Number of flat clusters to return (the parameter CVCP sweeps).
    linkage:
        ``"single"``, ``"complete"`` or ``"average"``.
    metric:
        Distance metric for the initial dissimilarity matrix.
    distance_backend:
        Storage tier for the initial matrix (see
        :mod:`repro.core.distance_backend`).  The Lance–Williams update
        mutates a dense in-RAM working copy regardless, so the tier only
        bounds the *initial* matrix computation here.

    Attributes
    ----------
    labels_:
        Flat cluster labels.
    merge_tree_:
        ``(n-1, 4)`` scipy-style merge records of the full dendrogram.
    """

    tuned_parameter = "n_clusters"

    def __init__(
        self,
        n_clusters: int = 2,
        *,
        linkage: str = "average",
        metric: str = "euclidean",
        distance_backend: str | None = None,
        random_state: RandomStateLike = None,
    ) -> None:
        self.n_clusters = n_clusters
        self.linkage = linkage
        self.metric = metric
        self.distance_backend = distance_backend
        self.random_state = random_state

    def fit(
        self,
        X: np.ndarray,
        constraints: ConstraintSet | None = None,
        seed_labels: dict[int, int] | None = None,
    ) -> "AgglomerativeClustering":
        """Cluster ``X``; side information is ignored (unsupervised baseline)."""
        X = check_array_2d(X)
        n_clusters = check_positive_int(self.n_clusters, name="n_clusters")
        if self.linkage not in _LINKAGES:
            raise ValueError(f"linkage must be one of {_LINKAGES}, got {self.linkage!r}")
        n_samples = X.shape[0]
        if n_clusters > n_samples:
            raise ValueError(
                f"n_clusters={n_clusters} exceeds the number of samples {n_samples}"
            )

        distances = cached_pairwise_distances(
            X, metric=self.metric, distance_backend=self.distance_backend
        )
        self.merge_tree_, merge_members = self._build_dendrogram(distances)
        self.labels_ = self._cut(merge_members, n_samples, n_clusters)
        return self

    # ------------------------------------------------------------------
    def _build_dendrogram(self, distances: np.ndarray) -> tuple[np.ndarray, list[list[int]]]:
        n_samples = distances.shape[0]
        # Working copy with the diagonal masked out.
        working = distances.astype(np.float64).copy()
        np.fill_diagonal(working, np.inf)

        active = {index: index for index in range(n_samples)}       # slot -> node id
        members: dict[int, list[int]] = {index: [index] for index in range(n_samples)}
        sizes = {index: 1 for index in range(n_samples)}
        merges = np.empty((max(n_samples - 1, 0), 4), dtype=np.float64)
        merge_members: list[list[int]] = []

        next_node = n_samples
        for merge_index in range(n_samples - 1):
            flat = int(np.argmin(working))
            row, column = divmod(flat, n_samples)
            distance = working[row, column]

            node_a, node_b = active[row], active[column]
            merged = members[node_a] + members[node_b]
            merges[merge_index] = (node_a, node_b, distance, len(merged))
            merge_members.append(merged)

            # Lance–Williams update of the row that survives (``row``).
            for other in range(n_samples):
                if other == row or other == column:
                    continue
                # Slots whose cluster was already merged away are marked inf.
                if np.isinf(working[row, other]) and np.isinf(working[column, other]):
                    continue
                d_a = working[row, other]
                d_b = working[column, other]
                if self.linkage == "single":
                    new_distance = min(d_a, d_b)
                elif self.linkage == "complete":
                    new_distance = max(d_a, d_b)
                else:  # average
                    size_a, size_b = sizes[node_a], sizes[node_b]
                    new_distance = (size_a * d_a + size_b * d_b) / (size_a + size_b)
                working[row, other] = new_distance
                working[other, row] = new_distance

            # Deactivate ``column``.
            working[column, :] = np.inf
            working[:, column] = np.inf
            working[row, row] = np.inf

            active[row] = next_node
            members[next_node] = merged
            sizes[next_node] = len(merged)
            del active[column]
            next_node += 1
        return merges, merge_members

    @staticmethod
    def _cut(merge_members: list[list[int]], n_samples: int, n_clusters: int) -> np.ndarray:
        """Undo the last ``n_clusters - 1`` merges to obtain flat clusters."""
        from repro.utils.disjoint_set import DisjointSet

        keep = max(len(merge_members) - (n_clusters - 1), 0)
        ds = DisjointSet(range(n_samples))
        for merged in merge_members[:keep]:
            anchor = merged[0]
            for index in merged[1:]:
                ds.union(anchor, index)
        labels = np.empty(n_samples, dtype=np.int64)
        root_to_label: dict[int, int] = {}
        for index in range(n_samples):
            root = ds.find(index)
            if root not in root_to_label:
                root_to_label[root] = len(root_to_label)
            labels[index] = root_to_label[root]
        return labels
