"""Whole-matrix ``dense`` distance tier kept as a test oracle.

The ``dense`` tier used to run the structure phase's derived passes over
whole matrices: core distances by one ``np.partition`` of the full
distance matrix, mutual reachability by two full-matrix ``np.maximum``
temporaries.  That tier is now a deprecated alias of ``blockwise``, whose
row-panel passes must reproduce it bit for bit.  This module preserves the
whole-matrix branches of ``k_nearest_distances`` and
``mutual_reachability`` and the dense path of ``DensityHierarchy.fit`` as
they were before the merge.  Only the names and the imports changed: the
pairwise matrix comes from :func:`pairwise_distances` (what the dense
backend returned), and the downstream kernels are the library's.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.distances import pairwise_distances
from repro.clustering.hierarchy import CondensedTreeArrays
from repro.clustering.kernels import condense_tree, minimum_spanning_tree, single_linkage_tree
from repro.utils.validation import check_array_2d, check_positive_int


def k_nearest_distances(distance_matrix: np.ndarray, k: int) -> np.ndarray:
    """Distance to the ``k``-th nearest neighbour: one full-matrix partition."""
    distance_matrix = np.asarray(distance_matrix)
    n = distance_matrix.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    distance_matrix = np.asarray(distance_matrix, dtype=np.float64)
    partitioned = np.partition(distance_matrix, k - 1, axis=1)
    return partitioned[:, k - 1]


def mutual_reachability(distances: np.ndarray, core_distances: np.ndarray) -> np.ndarray:
    """Mutual reachability distance matrix: the historical whole-matrix transform."""
    core_distances = np.asarray(core_distances, dtype=np.float64)
    distances = np.asarray(distances, dtype=np.float64)
    mreach = np.maximum(distances, core_distances[:, None])
    np.maximum(mreach, core_distances[None, :], out=mreach)
    np.fill_diagonal(mreach, 0.0)
    return mreach


class DenseHierarchy:
    """The dense-tier path of ``DensityHierarchy.fit``."""

    def __init__(
        self, min_pts: int, *, min_cluster_size: int | None = None, metric: str = "euclidean"
    ) -> None:
        self.min_pts = check_positive_int(min_pts, name="min_pts")
        self.min_cluster_size = (
            max(2, min_pts) if min_cluster_size is None
            else check_positive_int(min_cluster_size, name="min_cluster_size", minimum=2)
        )
        self.metric = metric

    def fit(self, X: np.ndarray) -> "DenseHierarchy":
        X = check_array_2d(X)
        if self.min_pts > X.shape[0]:
            raise ValueError(
                f"min_pts={self.min_pts} exceeds the number of samples {X.shape[0]}"
            )
        distances = pairwise_distances(X, metric=self.metric)
        self.core_distances_ = k_nearest_distances(distances, self.min_pts)
        # Dense tier: the historical whole-matrix transform.
        self.mutual_reachability_ = mutual_reachability(distances, self.core_distances_)
        self.mst_edges_ = minimum_spanning_tree(self.mutual_reachability_)
        self.single_linkage_tree_ = single_linkage_tree(self.mst_edges_, X.shape[0])
        self.condensed_tree_ = CondensedTreeArrays(
            condense_tree(self.single_linkage_tree_, X.shape[0], self.min_cluster_size)
        )
        return self
