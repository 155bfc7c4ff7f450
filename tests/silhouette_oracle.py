"""Per-object silhouette loop kept as a test oracle.

This module preserves the original, interpreter-bound
``silhouette_samples``/``silhouette_score`` of
:mod:`repro.evaluation.internal`: one fancy index and one ``mean`` per
(object, other cluster).  The row-blocked implementation in the library
must reproduce its widths byte for byte on finite input.  Only the module
docstring and the function names' ``oracle_`` prefix were changed.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.utils.cache import cached_pairwise_distances
from repro.utils.validation import check_array_2d, check_labels, unique_labels


def _validated(
    X: np.ndarray, labels: Sequence[int] | np.ndarray, *, metric: str = "euclidean"
) -> tuple[np.ndarray, np.ndarray]:
    if metric == "precomputed":
        from repro.clustering.distances import validate_precomputed_distances

        X = validate_precomputed_distances(X)
    else:
        X = check_array_2d(X)
    labels = check_labels(labels, X.shape[0])
    return X, labels


def oracle_silhouette_samples(
    X: np.ndarray,
    labels: Sequence[int] | np.ndarray,
    *,
    metric: str = "euclidean",
    distance_backend: str | None = None,
) -> np.ndarray:
    """Per-object silhouette width.

    Noise objects (label ``-1``) receive a silhouette of 0 and are excluded
    from the neighbour computations of other objects' clusters.
    Singleton clusters also receive 0, following the usual convention.
    ``metric`` selects the distance metric (``"precomputed"`` treats ``X``
    as the distance matrix itself); ``distance_backend`` selects the
    distance-matrix storage tier (see :mod:`repro.core.distance_backend`);
    the per-object loop reads the matrix row-wise, so memmap storage
    streams naturally.
    """
    X, labels = _validated(X, labels, metric=metric)
    clusters = unique_labels(labels)
    n_samples = X.shape[0]
    scores = np.zeros(n_samples, dtype=np.float64)
    if clusters.size < 2:
        return scores

    if metric == "precomputed":
        distances = X
    else:
        distances = cached_pairwise_distances(
            X, metric, distance_backend=distance_backend
        )
    members_by_cluster = {int(c): np.flatnonzero(labels == c) for c in clusters}

    for index in range(n_samples):
        own = int(labels[index])
        if own < 0:
            continue
        own_members = members_by_cluster[own]
        if own_members.size <= 1:
            continue
        within = distances[index, own_members]
        a = within.sum() / (own_members.size - 1)

        b = np.inf
        for other, other_members in members_by_cluster.items():
            if other == own:
                continue
            b = min(b, float(distances[index, other_members].mean()))
        denominator = max(a, b)
        if denominator > 0:
            scores[index] = (b - a) / denominator
    return scores


def oracle_silhouette_score(
    X: np.ndarray,
    labels: Sequence[int] | np.ndarray,
    *,
    metric: str = "euclidean",
    distance_backend: str | None = None,
) -> float:
    """Mean silhouette width over non-noise objects.

    Returns 0 when fewer than two clusters are present (the measure is
    undefined there; 0 keeps parameter sweeps well behaved).
    ``metric`` selects the distance metric (``"precomputed"`` = ``X`` is
    the distance matrix); ``distance_backend`` the storage tier.
    """
    X, labels = _validated(X, labels, metric=metric)
    clusters = unique_labels(labels)
    if clusters.size < 2:
        return 0.0
    scores = oracle_silhouette_samples(
        X, labels, metric=metric, distance_backend=distance_backend
    )
    mask = labels >= 0
    if not np.any(mask):
        return 0.0
    return float(scores[mask].mean())
