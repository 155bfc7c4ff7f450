"""The :class:`Dataset` container used across the library."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.admissibility import DATASET_METRICS, check_input
from repro.utils.validation import check_labels, is_sparse


@dataclass
class Dataset:
    """A labelled data set.

    Attributes
    ----------
    name:
        Human-readable identifier (e.g. ``"iris-like"``).
    X:
        ``(n, d)`` feature matrix — dense ``ndarray`` or scipy CSR (text
        workloads).  With ``metric="precomputed"`` this is the validated
        ``(n, n)`` distance matrix itself.
    y:
        ``(n,)`` ground-truth class labels (integers ``0..c-1``).
    description:
        Free-form provenance note (what the generator mimics, seed, ...).
    metric:
        Distance metric the experiments should evaluate this data set
        under: ``"euclidean"`` (default), ``"cosine"``, or
        ``"precomputed"``.
    """

    name: str
    X: np.ndarray
    y: np.ndarray
    description: str = ""
    meta: dict = field(default_factory=dict)
    metric: str = "euclidean"

    def __post_init__(self) -> None:
        if self.metric not in DATASET_METRICS:
            raise ValueError(
                f"{self.name}.metric must be one of {DATASET_METRICS}, "
                f"got {self.metric!r}"
            )
        self.X = check_input(self.X, self.metric, name=f"{self.name}.X")
        self.y = check_labels(self.y, self.X.shape[0], name=f"{self.name}.y")

    @property
    def is_sparse(self) -> bool:
        return is_sparse(self.X)

    @property
    def n_samples(self) -> int:
        return int(self.X.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.X.shape[1])

    @property
    def n_classes(self) -> int:
        return int(np.unique(self.y).size)

    @property
    def class_sizes(self) -> dict[int, int]:
        """Mapping ``class label -> number of objects``."""
        classes, counts = np.unique(self.y, return_counts=True)
        return {int(c): int(n) for c, n in zip(classes, counts)}

    def with_metric(self, metric: str) -> "Dataset":
        """Return a copy evaluated under ``metric`` (same data, new contract)."""
        if metric == self.metric:
            return self
        return Dataset(
            name=self.name,
            X=self.X,
            y=self.y.copy(),
            description=self.description,
            meta=dict(self.meta),
            metric=metric,
        )

    def standardized(self) -> "Dataset":
        """Return a copy with zero-mean, unit-variance features.

        Constant features are left untouched (divided by 1) to avoid NaNs.
        Undefined for sparse matrices (centering densifies) and for
        precomputed distances (there are no features to scale).
        """
        if self.metric == "precomputed":
            raise ValueError(f"{self.name}: cannot standardize a precomputed distance matrix")
        if self.is_sparse:
            raise ValueError(f"{self.name}: cannot standardize a sparse matrix without densifying")
        mean = self.X.mean(axis=0)
        std = self.X.std(axis=0)
        std = np.where(std == 0.0, 1.0, std)
        return Dataset(
            name=self.name,
            X=(self.X - mean) / std,
            y=self.y.copy(),
            description=self.description,
            meta=dict(self.meta, standardized=True),
            metric=self.metric,
        )

    def subsample(self, indices: np.ndarray, *, name: str | None = None) -> "Dataset":
        """Return the data set restricted to ``indices`` (labels re-used as is).

        A precomputed data set is sliced on both axes so the result is
        again a square distance matrix over the kept objects.
        """
        indices = np.asarray(indices, dtype=np.intp)
        if self.metric == "precomputed":
            X = self.X[np.ix_(indices, indices)]
        else:
            X = self.X[indices]
        return Dataset(
            name=name or f"{self.name}[subset]",
            X=X,
            y=self.y[indices],
            description=self.description,
            meta=dict(self.meta),
            metric=self.metric,
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Dataset(name={self.name!r}, n_samples={self.n_samples}, "
            f"n_features={self.n_features}, n_classes={self.n_classes}, "
            f"metric={self.metric!r})"
        )
