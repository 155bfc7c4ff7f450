"""Result containers and baseline selectors for model selection.

* :class:`ParameterEvaluation` / :class:`CVCPResult` — the cross-validation
  results produced by :class:`repro.core.cvcp.CVCP`.
* :class:`SilhouetteSelector` — the Silhouette-coefficient baseline the
  paper compares against for MPCKMeans (Section 4.3): run the algorithm for
  every candidate parameter (with all side information) and keep the
  parameter whose partition has the highest mean silhouette width.
* :func:`expected_quality` — the "expected performance when having to guess
  the right parameter from the given range": the average external quality
  over the whole parameter range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.clustering.base import BaseClusterer
from repro.constraints.constraint import ConstraintSet
from repro.evaluation.internal import silhouette_score
from repro.utils.validation import check_positive_int


@dataclass
class ParameterEvaluation:
    """Cross-validated evaluation of a single parameter value.

    Attributes
    ----------
    value:
        The parameter value (e.g. ``k=4`` or ``min_pts=9``).
    fold_scores:
        Internal classification score of every fold.
    """

    value: Any
    fold_scores: list[float] = field(default_factory=list)

    @property
    def mean_score(self) -> float:
        """Mean internal score over folds (the quantity CVCP maximises)."""
        return float(np.mean(self.fold_scores)) if self.fold_scores else 0.0

    @property
    def std_score(self) -> float:
        """Standard deviation of the fold scores (population std)."""
        return float(np.std(self.fold_scores)) if self.fold_scores else 0.0


@dataclass
class CVCPResult:
    """Full outcome of a CVCP parameter sweep.

    Attributes
    ----------
    parameter_name:
        Name of the swept parameter (``"n_clusters"``, ``"min_pts"``, ...).
    evaluations:
        One :class:`ParameterEvaluation` per candidate value, in sweep order.
    n_folds:
        Number of cross-validation folds actually used.
    scenario:
        ``"labels"`` or ``"constraints"`` — which input scenario was used.
    """

    parameter_name: str
    evaluations: list[ParameterEvaluation]
    n_folds: int
    scenario: str

    @property
    def values(self) -> list[Any]:
        """The candidate parameter values, in sweep order."""
        return [evaluation.value for evaluation in self.evaluations]

    @property
    def mean_scores(self) -> np.ndarray:
        """Mean cross-validated score per candidate value, in sweep order."""
        return np.asarray([evaluation.mean_score for evaluation in self.evaluations])

    @property
    def best_index(self) -> int:
        """Index of the winning value (ties go to the first in sweep order, as ``np.argmax``)."""
        if not self.evaluations:
            raise ValueError("no parameter values were evaluated")
        scores = self.mean_scores
        return int(np.argmax(scores))

    @property
    def best_value(self) -> Any:
        """The winning parameter value."""
        return self.evaluations[self.best_index].value

    @property
    def best_score(self) -> float:
        """Mean cross-validated score of the winning value."""
        return self.evaluations[self.best_index].mean_score

    def as_table(self) -> list[tuple[Any, float, float]]:
        """``(value, mean score, std)`` rows, handy for printing."""
        return [
            (evaluation.value, evaluation.mean_score, evaluation.std_score)
            for evaluation in self.evaluations
        ]


class SilhouetteSelector:
    """Select a parameter value by maximising the Silhouette coefficient.

    The candidate partitions are produced by the *same* semi-supervised
    algorithm with the *same* side information CVCP would use — only the
    selection criterion differs, exactly as in the paper's Sil-x baseline.

    Parameters
    ----------
    estimator:
        Template clusterer (cloned per candidate value).
    parameter_name:
        Name of the constructor parameter to sweep; defaults to the
        estimator's declared ``tuned_parameter``.
    parameter_values:
        Candidate values.
    """

    def __init__(
        self,
        estimator: BaseClusterer,
        parameter_values: Sequence[Any],
        *,
        parameter_name: str | None = None,
    ) -> None:
        if not list(parameter_values):
            raise ValueError("parameter_values must not be empty")
        self.estimator = estimator
        self.parameter_values = list(parameter_values)
        self.parameter_name = parameter_name or estimator.tuned_parameter
        if not self.parameter_name:
            raise ValueError(
                "parameter_name must be given when the estimator does not declare a tuned_parameter"
            )

    def fit(
        self,
        X: np.ndarray,
        constraints: ConstraintSet | None = None,
        seed_labels: dict[int, int] | None = None,
    ) -> "SilhouetteSelector":
        """Run the sweep; exposes ``best_value_``, ``best_estimator_``, ``labels_``."""
        scores: list[float] = []
        estimators: list[BaseClusterer] = []
        for value in self.parameter_values:
            estimator = self.estimator.clone(**{self.parameter_name: value})
            estimator.fit(X, constraints=constraints, seed_labels=seed_labels)
            metric = estimator.get_params().get("metric", "euclidean") or "euclidean"
            scores.append(silhouette_score(X, estimator.labels_, metric=metric))
            estimators.append(estimator)
        best_index = int(np.argmax(scores))
        self.scores_ = scores
        self.best_value_ = self.parameter_values[best_index]
        self.best_score_ = scores[best_index]
        self.best_estimator_ = estimators[best_index]
        self.labels_ = estimators[best_index].labels_
        return self


def expected_quality(qualities: Sequence[float]) -> float:
    """Average quality over a parameter range (the paper's "Expected" reference).

    The expected performance when one must guess the parameter uniformly at
    random from the considered range is simply the mean of the per-value
    external qualities.
    """
    qualities = list(qualities)
    if not qualities:
        raise ValueError("qualities must not be empty")
    return float(np.mean(qualities))


def parameter_range_for_k(n_classes_upper_bound: int) -> list[int]:
    """The paper's range of k values: ``2 .. M`` for an upper bound ``M``."""
    check_positive_int(n_classes_upper_bound, name="n_classes_upper_bound", minimum=2)
    return list(range(2, n_classes_upper_bound + 1))
