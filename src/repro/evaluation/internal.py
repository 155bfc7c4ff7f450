"""Internal (unsupervised) clustering evaluation measures.

The Silhouette coefficient (Kaufman & Rousseeuw, 1990) is the baseline
model-selection criterion the paper compares CVCP against for MPCKMeans
(Section 4.3): among the candidate values of ``k`` the one whose partition
maximises the mean silhouette width is selected.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.clustering.distances import DEFAULT_BLOCK_ROWS
from repro.utils.cache import cached_pairwise_distances
from repro.core.admissibility import check_input
from repro.utils.validation import check_labels, unique_labels


def _validated(
    X: np.ndarray, labels: Sequence[int] | np.ndarray, *, metric: str = "euclidean"
) -> tuple[np.ndarray, np.ndarray]:
    X = check_input(X, metric)
    return X, check_labels(labels, X.shape[0])


def silhouette_samples(
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
    distance-matrix storage tier (see :mod:`repro.core.distance_backend`).

    The matrix is read in row blocks of
    :data:`~repro.clustering.distances.DEFAULT_BLOCK_ROWS`, so memmap
    storage streams and no ``(n, n)`` temporary is made.  Each row's
    distance sum to a cluster is reduced over a C-contiguous gather of that
    cluster's columns, which numpy sums exactly like the 1-D slice of the
    row; the widths are therefore bit-identical to the textbook per-object
    loop.  An infinite distance yields the limit of ``(b - a) / max(a, b)``:
    1 for an infinite ``b``, -1 for an infinite ``a``, 0 for both.
    """
    X, labels = _validated(X, labels, metric=metric)
    return _silhouette_widths(X, labels, metric=metric, distance_backend=distance_backend)


def _silhouette_widths(
    X: np.ndarray, labels: np.ndarray, *, metric: str, distance_backend: str | None
) -> np.ndarray:
    """:func:`silhouette_samples` of already-validated input."""
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
    members = [np.flatnonzero(labels == c) for c in clusters]
    sizes = np.array([m.size for m in members])
    # Noise rows get position 0 here; they are never scored.
    positions = np.searchsorted(clusters, labels)
    scored = (labels >= 0) & (sizes[positions] > 1)

    for start in range(0, n_samples, DEFAULT_BLOCK_ROWS):
        stop = min(start + DEFAULT_BLOCK_ROWS, n_samples)
        local = np.flatnonzero(scored[start:stop])
        if local.size == 0:
            continue
        rows = np.asarray(distances[start:stop])
        # take() gathers C-contiguously: each row then reduces pairwise, as
        # a 1-D slice does (a fancy-indexed D[:, members] is F-ordered and
        # would add each row sequentially instead).
        sums = np.empty((stop - start, clusters.size), dtype=np.float64)
        for position, cluster_members in enumerate(members):
            sums[:, position] = rows.take(cluster_members, axis=1).sum(axis=1)

        own = positions[start + local]
        a = sums[local, own] / (sizes[own] - 1)
        means = sums[local] / sizes
        means[np.arange(local.size), own] = np.inf
        # min and maximum are exact; the only order they could change is the
        # sign of a zero, which never reaches a width.
        b = means.min(axis=1)

        denominator = np.maximum(a, b)
        widths = np.zeros(local.size, dtype=np.float64)
        ratio = np.flatnonzero(np.isfinite(denominator) & (denominator > 0))
        widths[ratio] = (b[ratio] - a[ratio]) / denominator[ratio]
        infinite = np.isinf(denominator)
        widths[infinite] = np.isinf(b[infinite]).astype(np.float64) - np.isinf(a[infinite])
        scores[start + local] = widths
    return scores


def silhouette_score(
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
    scores = _silhouette_widths(X, labels, metric=metric, distance_backend=distance_backend)
    mask = labels >= 0
    if not np.any(mask):
        return 0.0
    return float(scores[mask].mean())
