"""Synthetic analogues of the UCI and gene-expression data sets of the paper.

Each generator matches the corresponding real data set in the number of
objects, classes and features and mimics its qualitative cluster geometry
(see the per-function docstrings and DESIGN.md).  The goal is to preserve
the *relative* behaviour of the algorithms the paper reports — which classes
density-based clustering can recover, where k-means' spherical bias hurts —
rather than the absolute feature values.

All generators are deterministic given ``random_state``.
"""

from __future__ import annotations

import numpy as np

from repro.datasets.base import Dataset
from repro.utils.rng import RandomStateLike, check_random_state


def make_iris_like(*, random_state: RandomStateLike = 0) -> Dataset:
    """Iris analogue: 150 objects, 4 features, 3 classes of 50.

    One class is well separated; the other two overlap (as Setosa vs.
    Versicolor/Virginica do), so a clustering algorithm can typically find
    the separable class but merges or confuses parts of the other two.
    """
    rng = check_random_state(random_state)
    n_per_class = 50
    separated = rng.normal(loc=[5.0, 3.4, 1.5, 0.2], scale=[0.35, 0.38, 0.17, 0.10],
                           size=(n_per_class, 4))
    overlapping_a = rng.normal(loc=[5.9, 2.8, 4.3, 1.3], scale=[0.5, 0.31, 0.47, 0.20],
                               size=(n_per_class, 4))
    overlapping_b = rng.normal(loc=[6.6, 3.0, 5.5, 2.0], scale=[0.63, 0.32, 0.55, 0.27],
                               size=(n_per_class, 4))
    X = np.vstack([separated, overlapping_a, overlapping_b])
    y = np.repeat(np.arange(3, dtype=np.int64), n_per_class)
    return Dataset(
        name="iris-like",
        X=X,
        y=y,
        description=(
            "Synthetic analogue of UCI Iris: 3x50 objects in 4-d, one class "
            "linearly separable, two overlapping"
        ),
    )


def make_wine_like(*, random_state: RandomStateLike = 0) -> Dataset:
    """Wine analogue: 178 objects, 13 features, 3 classes (59/71/48).

    Classes are roughly Gaussian but with very different per-feature scales
    (as the unstandardised Wine chemistry measurements are) and moderate
    overlap, which keeps the absolute clustering quality modest as in the
    paper's Wine rows.
    """
    rng = check_random_state(random_state)
    class_sizes = (59, 71, 48)
    n_features = 13
    feature_scales = np.geomspace(0.1, 50.0, n_features)
    centers = rng.normal(scale=1.3, size=(3, n_features))

    features = []
    labels = []
    for cls, size in enumerate(class_sizes):
        spread = rng.uniform(0.7, 1.4, size=n_features)
        block = centers[cls] + rng.normal(scale=spread, size=(size, n_features))
        features.append(block * feature_scales)
        labels.append(np.full(size, cls, dtype=np.int64))
    return Dataset(
        name="wine-like",
        X=np.vstack(features),
        y=np.concatenate(labels),
        description=(
            "Synthetic analogue of UCI Wine: 178 objects in 13-d, 3 unbalanced "
            "classes with heterogeneous feature scales"
        ),
    )


def make_ionosphere_like(*, random_state: RandomStateLike = 0) -> Dataset:
    """Ionosphere analogue: 351 objects, 34 features, 2 classes (225 good / 126 bad).

    The "good" class forms a relatively compact region while the "bad" class
    is diffuse and partially wraps around it — a non-convex structure that a
    density-based method handles better than a spherical one, matching the
    FOSC > MPCKMeans gap the paper observes on Ionosphere.
    """
    rng = check_random_state(random_state)
    n_good, n_bad = 225, 126
    n_features = 34
    intrinsic = 5

    good_core = rng.normal(loc=0.0, scale=0.6, size=(n_good, intrinsic))
    # The bad class lives on a noisy shell around the good core.
    directions = rng.normal(size=(n_bad, intrinsic))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radii = rng.uniform(2.2, 3.5, size=(n_bad, 1))
    bad_shell = directions * radii + rng.normal(scale=0.35, size=(n_bad, intrinsic))

    intrinsic_points = np.vstack([good_core, bad_shell])
    projection = rng.normal(size=(intrinsic, n_features)) / np.sqrt(intrinsic)
    X = intrinsic_points @ projection + rng.normal(scale=0.25, size=(n_good + n_bad, n_features))
    y = np.concatenate([
        np.zeros(n_good, dtype=np.int64),
        np.ones(n_bad, dtype=np.int64),
    ])
    return Dataset(
        name="ionosphere-like",
        X=X,
        y=y,
        description=(
            "Synthetic analogue of UCI Ionosphere: 351 objects in 34-d, a compact "
            "class surrounded by a diffuse non-convex class"
        ),
    )


def make_ecoli_like(*, random_state: RandomStateLike = 0) -> Dataset:
    """Ecoli analogue: 336 objects, 7 features, 8 highly unbalanced classes.

    Class sizes follow the real data (143/77/52/35/20/5/2/2): several classes
    are tiny, so no flat partition scores highly on Overall F — mirroring the
    modest absolute values of the paper's Ecoli rows.
    """
    rng = check_random_state(random_state)
    class_sizes = (143, 77, 52, 35, 20, 5, 2, 2)
    n_features = 7
    centers = rng.uniform(-2.2, 2.2, size=(len(class_sizes), n_features))

    features = []
    labels = []
    for cls, size in enumerate(class_sizes):
        spread = rng.uniform(0.7, 1.4)
        features.append(centers[cls] + rng.normal(scale=spread, size=(size, n_features)))
        labels.append(np.full(size, cls, dtype=np.int64))
    return Dataset(
        name="ecoli-like",
        X=np.vstack(features),
        y=np.concatenate(labels),
        description=(
            "Synthetic analogue of UCI Ecoli: 336 objects in 7-d, 8 classes with "
            "very unbalanced sizes (two classes of size 2)"
        ),
    )


def make_zyeast_like(*, random_state: RandomStateLike = 0) -> Dataset:
    """Zyeast analogue: 205 objects, 20 features, 4 classes.

    Gene-expression profiles over 20 conditions: each class is a distinct
    temporal expression pattern (sinusoidal phase-shifted prototypes) with
    per-gene amplitude variation and measurement noise.  The classes are
    elongated and curved in feature space, which density-based clustering
    recovers very well (the paper reports Overall F above 0.9 for FOSC) while
    k-means struggles (around 0.5).
    """
    rng = check_random_state(random_state)
    class_sizes = (60, 55, 50, 40)
    n_conditions = 20
    timeline = np.linspace(0.0, 2.0 * np.pi, n_conditions)

    prototypes = np.vstack([
        np.sin(timeline),
        np.sin(timeline + np.pi / 2.0),
        np.sin(2.0 * timeline),
        -np.sin(timeline),
    ])

    features = []
    labels = []
    for cls, size in enumerate(class_sizes):
        # Wide amplitude range makes every class strongly elongated along its
        # expression prototype: density-based clustering follows the
        # elongated shape, a spherical k-means cuts it into pieces — the
        # regime where the paper observes MPCKMeans failing on Zyeast.
        amplitudes = rng.uniform(0.35, 2.6, size=(size, 1))
        offsets = rng.normal(scale=0.15, size=(size, 1))
        noise = rng.normal(scale=0.22, size=(size, n_conditions))
        features.append(amplitudes * prototypes[cls] + offsets + noise)
        labels.append(np.full(size, cls, dtype=np.int64))
    return Dataset(
        name="zyeast-like",
        X=np.vstack(features),
        y=np.concatenate(labels),
        description=(
            "Synthetic analogue of the Yeast cell-cycle expression data: 205 genes "
            "x 20 conditions, 4 phase-shifted expression patterns"
        ),
    )
