"""Common interface for clustering algorithms.

All clusterers in this library follow a small, sklearn-like protocol:

* construction takes hyper-parameters only;
* :meth:`BaseClusterer.fit` takes the data matrix and (for semi-supervised
  algorithms) a :class:`~repro.constraints.constraint.ConstraintSet` and/or
  partial labels, and stores the flat partition in ``labels_``;
* :meth:`BaseClusterer.fit_predict` returns the partition directly;
* :meth:`BaseClusterer.get_params` / :meth:`BaseClusterer.set_params` /
  :meth:`BaseClusterer.clone` allow the CVCP driver to re-instantiate an
  estimator with a different parameter value for each grid point.

Noise objects (only produced by the density-based algorithms) are labelled
``-1``; cluster labels are integers ``0..n_clusters-1``.
"""

from __future__ import annotations

import copy
import inspect
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.constraints.constraint import ConstraintSet


@dataclass
class ClusteringResult:
    """A flat clustering together with light metadata.

    Attributes
    ----------
    labels:
        Integer cluster labels per object, ``-1`` meaning noise.
    n_clusters:
        Number of (non-noise) clusters.
    params:
        The hyper-parameters that produced the result.
    meta:
        Free-form algorithm-specific metadata (iterations, objective, ...).
    """

    labels: np.ndarray
    n_clusters: int
    params: dict[str, Any] = field(default_factory=dict)
    meta: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_labels(cls, labels: np.ndarray, params: dict[str, Any] | None = None,
                    meta: dict[str, Any] | None = None) -> "ClusteringResult":
        labels = np.asarray(labels, dtype=np.int64)
        n_clusters = int(np.unique(labels[labels >= 0]).size)
        return cls(labels=labels, n_clusters=n_clusters,
                   params=dict(params or {}), meta=dict(meta or {}))

    @property
    def noise_mask(self) -> np.ndarray:
        """Boolean mask of objects labelled as noise."""
        return self.labels < 0

    @property
    def n_noise(self) -> int:
        return int(np.count_nonzero(self.labels < 0))


class BaseClusterer:
    """Base class providing parameter handling and the fit/predict protocol."""

    #: Name of the hyper-parameter that CVCP sweeps for this algorithm
    #: (e.g. ``"n_clusters"`` for k-means-style algorithms, ``"min_pts"``
    #: for density-based ones).  Subclasses override this.
    tuned_parameter: str = ""

    # -- parameter handling -------------------------------------------------
    @classmethod
    def _param_names(cls) -> list[str]:
        # Memoised per class (signature introspection is pure overhead on
        # the CVCP grid's hot clone/get_params path); ``cls.__dict__`` so a
        # subclass never inherits its parent's cached names.
        cached = cls.__dict__.get("_param_names_cached")
        if cached is None:
            signature = inspect.signature(cls.__init__)
            cached = [
                name
                for name, parameter in signature.parameters.items()
                if name != "self" and parameter.kind != parameter.VAR_KEYWORD
            ]
            cls._param_names_cached = cached
        return cached

    def get_params(self) -> dict[str, Any]:
        """Return the constructor parameters of this estimator."""
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params: Any) -> "BaseClusterer":
        """Set constructor parameters in place and return ``self``."""
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"unknown parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters are {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def clone(self, **overrides: Any) -> "BaseClusterer":
        """Fresh, unfitted copy of this estimator with optional overrides."""
        params = self.get_params()
        params.update(overrides)
        return type(self)(**copy.deepcopy(params))

    # -- fitting protocol ---------------------------------------------------
    def fit(
        self,
        X: np.ndarray,
        constraints: ConstraintSet | None = None,
        seed_labels: dict[int, int] | None = None,
    ) -> "BaseClusterer":
        """Cluster ``X``; semi-supervised algorithms honour the side information.

        Subclasses must implement :meth:`_fit` and set ``labels_``.
        """
        raise NotImplementedError

    def fit_predict(
        self,
        X: np.ndarray,
        constraints: ConstraintSet | None = None,
        seed_labels: dict[int, int] | None = None,
    ) -> np.ndarray:
        """Convenience wrapper: fit and return ``labels_``."""
        self.fit(X, constraints=constraints, seed_labels=seed_labels)
        return self.labels_

    # -- fitted attributes --------------------------------------------------
    labels_: np.ndarray

    @property
    def result_(self) -> ClusteringResult:
        """The last fit as a :class:`ClusteringResult`."""
        if not hasattr(self, "labels_"):
            raise AttributeError(f"{type(self).__name__} has not been fitted yet")
        return ClusteringResult.from_labels(self.labels_, params=self.get_params())

    @property
    def n_clusters_(self) -> int:
        """Number of non-noise clusters found by the last fit."""
        if not hasattr(self, "labels_"):
            raise AttributeError(f"{type(self).__name__} has not been fitted yet")
        labels = np.asarray(self.labels_)
        return int(np.unique(labels[labels >= 0]).size)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        params = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({params})"
