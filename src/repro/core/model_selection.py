"""Result containers and the "expected performance" reference for model selection.

* :class:`ParameterEvaluation` / :class:`CVCPResult` — the cross-validation
  results produced by :class:`repro.core.cvcp.CVCP`.
* :func:`expected_quality` — the "expected performance when having to guess
  the right parameter from the given range": the average external quality
  over the whole parameter range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np


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
