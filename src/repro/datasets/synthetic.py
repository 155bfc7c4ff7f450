"""Generic synthetic data generators.

These are the building blocks of the data-set analogues in
:mod:`repro.datasets.uci_like` and :mod:`repro.datasets.aloi`, and are also
useful on their own in the examples and tests (Gaussian blobs for k-means
friendly structure, moons for density-based structure that a partitional
algorithm cannot capture).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.datasets.base import Dataset
from repro.utils.rng import RandomStateLike, check_random_state
from repro.utils.validation import check_positive_int


def make_blobs(
    n_samples_per_class: Sequence[int],
    n_features: int,
    *,
    center_spread: float = 8.0,
    cluster_std: float | Sequence[float] = 1.0,
    random_state: RandomStateLike = None,
    name: str = "blobs",
) -> Dataset:
    """Isotropic Gaussian blobs, one per class.

    Parameters
    ----------
    n_samples_per_class:
        Number of objects in every class (the length defines the number of
        classes).
    n_features:
        Dimensionality.
    center_spread:
        Scale of the uniform cube the class centers are drawn from.
    cluster_std:
        Standard deviation of each class (scalar or one per class).
    """
    check_positive_int(n_features, name="n_features")
    rng = check_random_state(random_state)
    n_classes = len(n_samples_per_class)
    if n_classes < 1:
        raise ValueError("need at least one class")

    stds = np.broadcast_to(np.asarray(cluster_std, dtype=np.float64), (n_classes,))
    centers = rng.uniform(-center_spread, center_spread, size=(n_classes, n_features))

    features = []
    labels = []
    for cls, (n_cls, std) in enumerate(zip(n_samples_per_class, stds)):
        check_positive_int(int(n_cls), name="n_samples_per_class entry")
        features.append(centers[cls] + rng.normal(scale=std, size=(n_cls, n_features)))
        labels.append(np.full(n_cls, cls, dtype=np.int64))
    return Dataset(
        name=name,
        X=np.vstack(features),
        y=np.concatenate(labels),
        description=f"{n_classes} isotropic Gaussian blobs in {n_features}-d",
    )


def make_two_moons(
    n_samples: int = 200,
    *,
    noise: float = 0.08,
    random_state: RandomStateLike = None,
    name: str = "two-moons",
) -> Dataset:
    """The classic interleaved half-circles (non-convex, density-friendly)."""
    check_positive_int(n_samples, name="n_samples")
    rng = check_random_state(random_state)
    n_upper = n_samples // 2
    n_lower = n_samples - n_upper

    theta_upper = rng.uniform(0.0, np.pi, size=n_upper)
    theta_lower = rng.uniform(0.0, np.pi, size=n_lower)
    upper = np.column_stack([np.cos(theta_upper), np.sin(theta_upper)])
    lower = np.column_stack([1.0 - np.cos(theta_lower), 0.5 - np.sin(theta_lower)])

    X = np.vstack([upper, lower]) + rng.normal(scale=noise, size=(n_samples, 2))
    y = np.concatenate([np.zeros(n_upper, dtype=np.int64), np.ones(n_lower, dtype=np.int64)])
    return Dataset(name=name, X=X, y=y, description="two interleaved half-moons in 2-d")


def embed_in_higher_dimension(
    dataset: Dataset,
    n_features: int,
    *,
    noise: float = 0.05,
    random_state: RandomStateLike = None,
) -> Dataset:
    """Embed a low-dimensional data set into ``n_features`` dimensions.

    The original features are mapped through a random orthonormal-ish linear
    map and Gaussian noise fills the remaining directions — mimicking
    high-dimensional descriptors (e.g. the 144-d colour moments of ALOI)
    whose intrinsic structure is low-dimensional.
    """
    rng = check_random_state(random_state)
    original_dim = dataset.n_features
    if n_features < original_dim:
        raise ValueError(
            f"target dimension {n_features} is smaller than the original {original_dim}"
        )
    projection = rng.normal(size=(original_dim, n_features))
    # Orthonormalise the rows so distances are roughly preserved.
    q, _ = np.linalg.qr(projection.T)
    projection = q[:, :original_dim].T
    X = dataset.X @ projection + rng.normal(scale=noise, size=(dataset.n_samples, n_features))
    return Dataset(
        name=dataset.name,
        X=X,
        y=dataset.y.copy(),
        description=dataset.description + f", embedded in {n_features}-d",
        meta=dict(dataset.meta, embedded_from=original_dim),
    )
